"""`run` and `verify` agree on every input rule of every construction record.

For each rule the record names, a fresh report's input is lowered one order
below the rule (or moved off delta_ij at the origin): the scenario carrying
the report's inputs inline must make `run` exit 2 with the rule's reason,
and the report itself must make `verify` exit 1 with `malformed report: ...`.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from jetgeom.builders import _CONSTRUCTIONS
from jetgeom.cli import main

CAP = 4
N = {
    "general": 2,
    "trace-free-torsion": 3,
    "torsion-free": 2,
    "metric-2d": 2,
    "statistical": 3,
    "statistical-2d": 2,
    "trace-free-statistical-2d": 2,
}
RANDOM_INPUTS = {
    "metric-2d": ("r11", "r22", "phi", "psi"),
    "statistical-2d": ("g11", "init12", "init22"),
    "trace-free-statistical-2d": ("init12", "init22"),
}
EXACT = [
    pytest.param(tag, name, below, reason, id=f"{tag}-{name}")
    for tag, rec in _CONSTRUCTIONS.items()
    for name, below, reason in rec.exact
]
NORMAL = [
    pytest.param(tag, name, id=f"{tag}-{name}")
    for tag, rec in _CONSTRUCTIONS.items()
    for name in rec.normal
]


def call(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The report of a random D = CAP scenario of a construction, built once."""
    folder = tmp_path_factory.mktemp("fresh")
    texts = {}

    def report(tag: str) -> dict:
        if tag not in texts:
            scenario = {"construction": tag, "n": N[tag], "D": CAP, "seed": 3}
            scenario["free_data"] = "random"
            if tag in ("general", "trace-free-torsion", "torsion-free"):
                scenario["prescribed"] = {"r": "random"}
            else:
                scenario["prescribed"] = {key: "random" for key in RANDOM_INPUTS.get(tag, ())}
            output = folder / f"{tag}.report.json"
            path = folder / f"{tag}.json"
            path.write_text(json.dumps(dict(scenario, output=str(output))))
            assert call("run", str(path))[0] == 0
            texts[tag] = output.read_text()
        return json.loads(texts[tag])

    return report


def first_jet(report: dict, name: str) -> dict:
    """The JSON of the first jet of the report's input `name`, named as the
    record names it."""
    if name in report["prescribed"]:
        typed = report["prescribed"][name]
        value = typed["value"]
        if typed["type"] == "bilinear":
            return value["comps"]["1,1"]
        if typed["type"] == "connection":
            return value["gamma"]["1;1,1"]
        return value["jet"] if typed["type"] == "slice" else value
    fd = report["free_data"]
    if name == "free symbols":
        return fd["free_functions"][min(s for s in fd["free_functions"] if not s.startswith("g;"))]
    if name == "initial slices":
        return fd["initial_slices"][min(fd["initial_slices"])]["jet"]
    if name == "phi":
        return fd["gauge_function"]
    return fd["free_functions"][name]


def scenario_of(report: dict, output: str) -> dict:
    """A direct scenario carrying every input of the report inline."""
    prescribed = {name: typed["value"] for name, typed in report["prescribed"].items()}
    if report["construction"] == "metric-2d":
        comps = prescribed.pop("r")["comps"]
        prescribed.update(r11=comps["1,1"], r22=comps["2,2"])
    elif "r" in prescribed:
        prescribed["r"] = {"components": prescribed["r"]["comps"]}
    scenario = {
        "construction": report["construction"],
        "n": report["n"],
        "D": report["D"],
        "prescribed": prescribed,
        "output": output,
    }
    fd = report["free_data"]
    if fd is not None:
        slots = {**fd["free_functions"], **fd["initial_slices"]}
        if fd["gauge_function"] is not None:
            slots["phi"] = fd["gauge_function"]
        scenario["free_data"] = {"default": "zero", "slots": slots}
    return scenario


def run_inline(tmp_path, report: dict) -> tuple[int, str, bool]:
    """Exit code and stdout of `run` on the report's inputs, and whether it
    wrote a report."""
    output = tmp_path / "rebuilt.json"
    output.unlink(missing_ok=True)
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(scenario_of(report, str(output))))
    code, out, _ = call("run", str(path))
    return code, out, output.exists()


def verify_report(tmp_path, report: dict) -> tuple[int, str, str]:
    path = tmp_path / "edited.report.json"
    path.write_text(json.dumps(report))
    return call("verify", str(path))


@pytest.mark.parametrize("tag", list(_CONSTRUCTIONS))
def test_inline_inputs_of_a_fresh_report_rebuild_it(tmp_path, fresh, tag):
    report = fresh(tag)
    code, _, written = run_inline(tmp_path, report)
    assert code == 0 and written
    assert json.loads((tmp_path / "rebuilt.json").read_text()) == report


@pytest.mark.parametrize("tag, name, below, reason", EXACT)
def test_run_and_verify_agree_on_each_exactness_rule(tmp_path, fresh, tag, name, below, reason):
    order = CAP - below
    at_rule = copy.deepcopy(fresh(tag))
    first_jet(at_rule, name)["valid_order"] = order
    code, out, _ = run_inline(tmp_path, at_rule)
    assert code == 0, out

    short = copy.deepcopy(fresh(tag))
    first_jet(short, name)["valid_order"] = order - 1
    code, out, written = run_inline(tmp_path, short)
    assert code == 2 and json.loads(out) == {"status": "rejected", "reason": reason}
    assert not written
    code, out, err = verify_report(tmp_path, short)
    assert code == 1 and out == ""
    message = f"{name} is valid to order {order - 1}, the solve reads it to {order}"
    assert err == f"malformed report: {message}\n"


@pytest.mark.parametrize("tag, name", NORMAL)
def test_run_and_verify_agree_on_each_normalization_rule(tmp_path, fresh, tag, name):
    off = copy.deepcopy(fresh(tag))
    jet = first_jet(off, name)
    jet["coeffs"][" ".join("0" * jet["n"])] = "2/1"
    code, out, written = run_inline(tmp_path, off)
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": "normalization-violated"}
    assert not written
    code, out, err = verify_report(tmp_path, off)
    assert code == 1 and out == ""
    assert err.startswith("malformed report: g;") and "at the origin" in err


def short_input_report(tmp_path, scenario: dict, edit) -> dict:
    output = tmp_path / "fresh.json"
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(dict(scenario, seed=1, output=str(output))))
    assert call("run", str(path))[0] == 0
    report = json.loads(output.read_text())
    edit(report)
    return report


def g11_to_2(report):
    report["prescribed"]["g11"]["value"]["valid_order"] = 2


def r11_to(order):
    def edit(report):
        report["prescribed"]["r"]["value"]["comps"]["1,1"]["valid_order"] = order

    return edit


@pytest.mark.parametrize(
    "scenario, edit, message",
    [
        pytest.param(
            {"construction": "statistical-2d", "n": 2, "D": 5},
            g11_to_2,
            "g11 is valid to order 2, the solve reads it to 5",
            id="statistical-2d-g11",
        ),
        pytest.param(
            {"construction": "general", "n": 2, "D": 4, "free_data": "random"},
            r11_to(1),
            "r is valid to order 1, the solve reads it to 3",
            id="general-r11",
        ),
        pytest.param(
            {"construction": "metric-2d", "n": 2, "D": 6},
            r11_to(2),
            "r is valid to order 2, the solve reads it to 6",
            id="metric-2d-r11",
        ),
    ],
)
def test_verify_rejects_a_report_whose_input_a_build_rejects(tmp_path, scenario, edit, message):
    report = short_input_report(tmp_path, scenario, edit)
    assert verify_report(tmp_path, report) == (1, "", f"malformed report: {message}\n")


def move(jet: dict, cap: int):
    """The jet's JSON moved to cap `cap`: its coefficients above it dropped
    and its valid order at most cap."""
    jet["coeffs"] = {key: c for key, c in jet["coeffs"].items() if sum(map(int, key.split())) <= cap}
    jet["D"], jet["valid_order"] = cap, min(jet["valid_order"], cap)


KINDS = [
    ("general", "r"),
    ("general", "free symbols"),
    ("torsion-free", "phi"),
    ("general", "initial slices"),
    ("metric-2d", "phi"),
    ("metric-2d", "psi"),
    ("statistical-2d", "g11"),
    ("statistical-2d", "init12"),
]
ADMISSION = [
    pytest.param(tag, name, cap, id=f"{tag}-{name.replace(' ', '-')}-D{cap - CAP:+d}")
    for tag, name in KINDS
    for cap in (CAP + 1, CAP - 1)
]
ADMISSION.append(pytest.param("metric-2d", "free data", None, id="metric-2d-free-data"))


@pytest.mark.parametrize("tag, name, cap", ADMISSION)
def test_verify_admits_every_input_only_in_its_report_workspace(tmp_path, fresh, tag, name, cap):
    """Each input kind moved to another cap (every component of r, since a
    table has one workspace), and a general report's free data carried by a
    construction without a census."""
    report = copy.deepcopy(fresh(tag))
    if name == "free data":
        report["free_data"] = fresh("general")["free_data"]
        message = "a metric-2d report takes no free data"
    else:
        if name == "r":
            jets = report["prescribed"]["r"]["value"]["comps"].values()
        else:
            jets = [first_jet(report, name)]
        for jet in jets:
            move(jet, cap)
        message = f"lives in workspace (n, D) = ({N[tag]}, {cap})"
    code, out, err = verify_report(tmp_path, report)
    assert code == 1 and out == ""
    assert err.startswith("malformed report: ") and message in err, err


@pytest.mark.parametrize("cap", [CAP + 1, CAP - 1], ids=["D+1", "D-1"])
@pytest.mark.parametrize(
    "tag, name", [("statistical-2d", "g11"), ("trace-free-statistical-2d", "init12")]
)
def test_run_rejects_an_inline_connection_in_another_workspace(tmp_path, fresh, tag, name, cap):
    """The 2D statistical builds take D from init12, which the scenario
    fixes, so admission names the connection, not the scenario's own input
    (name): malformed, before any input rule."""
    report = copy.deepcopy(fresh(tag))
    for jet in report["prescribed"]["connection"]["value"]["gamma"].values():
        move(jet, cap)
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(scenario_of(report, str(tmp_path / "rebuilt.json"))))
    code, out, err = call("run", str(path))
    assert code == 1 and out == "" and not (tmp_path / "rebuilt.json").exists()
    message = f"prescribed 'connection' lives in workspace (n, D) = (2, {cap})"
    assert err == f"malformed scenario: {message}, the report declares (2, {CAP})\n"
    assert repr(name) not in err
