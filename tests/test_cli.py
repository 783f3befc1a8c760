"""CLI: scenario runs, exit-code contract, census printing, report verify."""

import io
import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from jetgeom import cli, serialize
from jetgeom import multiindex as mi
from jetgeom.builders import _CHECKS, MAX_NODE_PAIRS, BuildReport, Check, _codazzi_spec, verify
from jetgeom.cli import main
from jetgeom.serialize import (
    canonical_dumps,
    connection_to_json,
    report_from_json,
    report_to_json,
)
from jetgeom import RejectionError, levi_civita, random_connection, random_normalized_metric


def write_scenario(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_zero_scenario(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    scenario = write_scenario(
        tmp_path,
        "zero.json",
        {
            "construction": "torsion-free",
            "n": 3,
            "D": 4,
            "prescribed": {"r": "zero"},
            "free_data": "zero",
            "output": str(out_path),
        },
    )
    code, out = run_cli(capsys, "run", str(scenario))
    assert code == 0
    assert json.loads(out)["status"] == "ok"
    report = report_from_json(json.loads(out_path.read_text()))
    conn = report.outputs["connection"]
    assert all(j.is_zero_up_to(4) for j in conn.gamma.values())


def test_run_non_closed_scenario_rejected(tmp_path, capsys):
    x3 = {"n": 3, "D": 4, "valid_order": 4, "coeffs": {"0 0 1": "1/1"}}
    neg_x3 = {"n": 3, "D": 4, "valid_order": 4, "coeffs": {"0 0 1": "-1/1"}}
    scenario = write_scenario(
        tmp_path,
        "nc.json",
        {
            "construction": "torsion-free",
            "n": 3,
            "D": 4,
            "prescribed": {"r": {"components": {"1,2": x3, "2,1": neg_x3}}},
            "free_data": "zero",
            "output": str(tmp_path / "nc_report.json"),
        },
    )
    code, out = run_cli(capsys, "run", str(scenario))
    assert code == 2
    assert json.loads(out)["reason"] == "antisymmetric-part-not-closed"


def test_round_trip_scenario_reproduces_seed_connection(tmp_path, capsys):
    out_path = tmp_path / "rt.json"
    scenario = write_scenario(
        tmp_path,
        "rt.json.scenario",
        {
            "construction": "general",
            "n": 3,
            "D": 4,
            "seed": 7,
            "mode": "round_trip",
            "round_trip": {"degree": 3, "coeff_bound": 2},
            "output": str(out_path),
        },
    )
    code, _ = run_cli(capsys, "run", str(scenario))
    assert code == 0
    report = json.loads(out_path.read_text())
    seeded = random_connection(7, 3, 4, 3, 2)
    assert report["outputs"]["connection"]["value"] == json.loads(
        json.dumps(connection_to_json(seeded))
    )


def test_fixed_seed_byte_identical_reports(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"rep_{tag}.json"
        scenario = write_scenario(
            tmp_path,
            f"sc_{tag}.json",
            {
                "construction": "statistical",
                "n": 3,
                "D": 3,
                "seed": 5,
                "free_data": "random",
                "output": str(out_path),
            },
        )
        code, _ = run_cli(capsys, "run", str(scenario))
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    missing_tag = write_scenario(tmp_path, "missing.json", {"n": 3})
    assert main(["run", str(missing_tag)]) == 1


# ---------------------------------------------------------------------------
# run verifies the bytes it wrote, not the report it wrote them from: they must
# read back as the checked build, value for value

# one D <= 4 scenario per construction, every value of which holds a coefficient
READ_BACK_SCENARIOS = {
    "general": {"n": 2, "D": 2, "prescribed": {"r": "random"}, "free_data": "random"},
    "trace-free-torsion": {"n": 3, "D": 2, "prescribed": {"r": "random"}, "free_data": "random"},
    "torsion-free": {"n": 2, "D": 3, "prescribed": {"r": "random"}, "free_data": "random"},
    "metric-2d": {"n": 2, "D": 3, "prescribed": {"psi": "random"}},
    "statistical": {"n": 3, "D": 2, "free_data": "random"},
    "statistical-2d": {
        "n": 2, "D": 3,
        "prescribed": {key: "random" for key in ("g11", "init12", "init22")},
    },
    "trace-free-statistical-2d": {
        "n": 2, "D": 3, "prescribed": {key: "random" for key in ("init12", "init22")},
    },
}
# construction -> the (section, name) of every value its reports hold
READ_BACK_VALUES = {
    "general": [
        ("prescribed", "r"), ("free_data", "free_functions"),
        ("free_data", "initial_slices"), ("outputs", "connection"),
    ],
    "trace-free-torsion": [
        ("prescribed", "r"), ("free_data", "free_functions"),
        ("free_data", "initial_slices"), ("outputs", "connection"),
    ],
    "torsion-free": [
        ("prescribed", "r"), ("free_data", "free_functions"), ("free_data", "initial_slices"),
        ("free_data", "gauge_function"), ("outputs", "connection"),
    ],
    "metric-2d": [
        ("prescribed", "phi"), ("prescribed", "psi"), ("prescribed", "r"),
        ("outputs", "conformal_factor"), ("outputs", "metric"),
    ],
    "statistical": [
        ("free_data", "free_functions"), ("free_data", "initial_slices"),
        ("outputs", "connection"), ("outputs", "metric"),
    ],
    "statistical-2d": [
        ("prescribed", "connection"), ("prescribed", "g11"), ("prescribed", "init12"),
        ("prescribed", "init22"), ("outputs", "metric"),
    ],
    "trace-free-statistical-2d": [
        ("prescribed", "connection"), ("prescribed", "init12"), ("prescribed", "init22"),
        ("outputs", "metric"), ("outputs", "volume"),
    ],
}
READ_BACK_SITES = [(tag, *site) for tag, sites in READ_BACK_VALUES.items() for site in sites]


def read_back_scenario(output, construction="general") -> dict:
    scenario = {"construction": construction, "seed": 1, "output": str(output)}
    return {**scenario, **READ_BACK_SCENARIOS[construction]}


def assert_verification_failed(tmp_path, capsys, output, construction="general"):
    scenario = write_scenario(tmp_path, "sc.json", read_back_scenario(output, construction))
    code = main(["run", str(scenario)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"status": "verification-failed", "report": str(output)}
    # the reason, in one line on stderr
    assert captured.err.startswith("read-back ") and captured.err.count("\n") == 1


def tamper_with(monkeypatch, edit):
    """Make `run` write the report JSON as `edit` changes it."""
    real = serialize.report_text

    def tampered(report):
        data = json.loads(real(report))
        edit(data)
        return canonical_dumps(data)

    monkeypatch.setattr(serialize, "report_text", tampered)


def test_run_written_bytes_that_are_no_json_fail_verification(tmp_path, capsys):
    # the write succeeds, the read-back finds no report
    assert_verification_failed(tmp_path, capsys, Path("/dev/null"))


def test_run_written_report_missing_a_free_data_slot_fails_verification(
    tmp_path, capsys, monkeypatch
):
    # the read-back report breaks an admission rule (slot-mismatch)
    def drop_slot(data):
        free = data["free_data"]["free_functions"]
        del free[min(free)]

    tamper_with(monkeypatch, drop_slot)
    assert_verification_failed(tmp_path, capsys, tmp_path / "report.json")


def run_read_back(tmp_path, capsys, name: str):
    """(exit code, stdout, stderr, report bytes) of a general run."""
    output = tmp_path / f"{name}.json"
    scenario = write_scenario(tmp_path, f"{name}_sc.json", read_back_scenario(output))
    code = main(["run", str(scenario)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, output.read_bytes()


def test_run_says_why_a_read_back_raised(tmp_path, capsys, monkeypatch):
    code, out, err, written = run_read_back(tmp_path, capsys, "plain")
    assert (code, err) == (0, "")

    def fails(data):
        raise RuntimeError("no reader\nhere")

    monkeypatch.setattr(serialize, "report_from_json", fails)
    code, out, err, bytes_ = run_read_back(tmp_path, capsys, "raised")
    assert code == 2 and bytes_ == written
    report = str(tmp_path / "raised.json")
    assert json.loads(out) == {"status": "verification-failed", "report": report}
    assert err == "read-back raised RuntimeError: no reader here\n"


def test_run_says_when_a_read_back_differs_from_the_build(tmp_path, capsys, monkeypatch):
    code, out, err, written = run_read_back(tmp_path, capsys, "plain")
    monkeypatch.setattr(cli, "verify_read_back", lambda built, read: False)
    code, out, err, bytes_ = run_read_back(tmp_path, capsys, "differs")
    assert code == 2 and bytes_ == written
    report = str(tmp_path / "differs.json")
    assert json.loads(out) == {"status": "verification-failed", "report": report}
    assert err == "read-back differs from the build\n"


def stored_jets(node):
    """Every stored jet under a report section that holds a coefficient, in
    key order."""
    if isinstance(node, dict):
        if node.get("coeffs"):
            yield node
        for key in sorted(node):
            yield from stored_jets(node[key])


def drop_coefficient(jet):
    del jet["coeffs"][min(jet["coeffs"])]


def negate_coefficient(jet):
    key = min(jet["coeffs"])
    jet["coeffs"][key] = str(-Fraction(jet["coeffs"][key]))


def lower_valid_order(jet):
    jet["valid_order"] -= 1


@pytest.mark.parametrize("edit", [drop_coefficient, negate_coefficient, lower_valid_order])
@pytest.mark.parametrize("construction, section, name", READ_BACK_SITES)
def test_run_verifies_the_bytes_it_wrote(
    tmp_path, capsys, monkeypatch, construction, section, name, edit
):
    tamper_with(monkeypatch, lambda data: edit(next(stored_jets(data[section][name]))))
    assert_verification_failed(tmp_path, capsys, tmp_path / "report.json", construction)


def change_a_check_order(data):
    data["checks"][0]["zero_to_order"] -= 1


def drop_a_check(data):
    del data["checks"][-1]


def retag_the_metric_bilinear(data):
    data["outputs"]["metric"]["type"] = "bilinear"


def unmark_the_symmetric_connection(data):
    value = data["outputs" if "connection" in data["outputs"] else "prescribed"]["connection"]
    assert value["value"]["symmetric"] is True
    value["value"]["symmetric"] = False


# serializer faults that change no coefficient, each on every construction
# whose reports hold what it changes
FAULTS = [
    *((change_a_check_order, tag) for tag in READ_BACK_SCENARIOS),
    *((drop_a_check, tag) for tag in READ_BACK_SCENARIOS),
    *(
        (retag_the_metric_bilinear, tag)
        for tag in ("metric-2d", "statistical", "statistical-2d", "trace-free-statistical-2d")
    ),
    *(
        (unmark_the_symmetric_connection, tag)
        for tag in ("torsion-free", "statistical", "trace-free-statistical-2d")
    ),
]


@pytest.mark.parametrize("fault, construction", FAULTS)
def test_run_fails_a_written_report_that_keeps_every_coefficient(
    tmp_path, capsys, monkeypatch, fault, construction
):
    tamper_with(monkeypatch, fault)
    assert_verification_failed(tmp_path, capsys, tmp_path / "report.json", construction)


@pytest.mark.parametrize("construction", READ_BACK_SCENARIOS)
def test_run_ok_and_verify_agree_on_untampered_reports(tmp_path, capsys, construction):
    # the read-back comparison and the checks `verify` re-runs accept the
    # same written report
    output = tmp_path / "report.json"
    scenario = write_scenario(tmp_path, "sc.json", read_back_scenario(output, construction))
    code, out = run_cli(capsys, "run", str(scenario))
    assert code == 0 and json.loads(out) == {"status": "ok", "report": str(output)}
    assert verify(report_from_json(json.loads(output.read_text())))


def test_census_counts(capsys):
    code, out = run_cli(capsys, "census", "general", "2")
    assert code == 0
    assert "free functions (4):" in out
    assert "initial slices (4):" in out


def test_census_statistical_4(capsys):
    code, out = run_cli(capsys, "census", "statistical", "4")
    assert code == 0
    assert "free functions (30):" in out
    assert "initial slices (9):" in out


def test_census_rejects_trace_free_2d(capsys):
    code, out = run_cli(capsys, "census", "trace-free-torsion", "2")
    assert code == 2
    assert json.loads(out)["reason"] == "unsupported-construction"


def test_verify_command(tmp_path, capsys):
    out_path = tmp_path / "rep.json"
    scenario = write_scenario(
        tmp_path,
        "sc.json",
        {
            "construction": "general",
            "n": 2,
            "D": 4,
            "seed": 3,
            "prescribed": {"r": "random"},
            "free_data": "random",
            "output": str(out_path),
        },
    )
    assert main(["run", str(scenario)]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "verify", str(out_path))
    assert code == 0 and json.loads(out)["verified"] is True
    code, out = run_cli(capsys, "verify", str(out_path), "--order", "3")
    assert code == 0 and json.loads(out)["verified"] is True

    # perturb one stored coefficient: verification must fail
    data = json.loads(out_path.read_text())
    conn = data["outputs"]["connection"]["value"]["gamma"]
    key = sorted(conn)[0]
    conn[key]["coeffs"]["1 0"] = "917/1"
    bad_path = tmp_path / "bad_rep.json"
    bad_path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "verify", str(bad_path))
    assert code == 2 and json.loads(out)["verified"] is False


def test_verify_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["verify", str(bad)]) == 1


def test_run_all_tags_smoke(tmp_path, capsys):
    for tag, n in (
        ("general", 2),
        ("trace-free-torsion", 3),
        ("torsion-free", 2),
        ("metric-2d", 2),
        ("statistical", 3),
        ("statistical-2d", 2),
        ("trace-free-statistical-2d", 2),
    ):
        out_path = tmp_path / f"{tag}.json"
        scenario = write_scenario(
            tmp_path,
            f"{tag}.scenario.json",
            {
                "construction": tag,
                "n": n,
                "D": 3,
                "seed": 1,
                "prescribed": {"r": "random"} if n else {},
                "free_data": "random",
                "output": str(out_path),
            },
        )
        code, out = run_cli(capsys, "run", str(scenario))
        assert code == 0, (tag, out)


def inline_jet(coeffs: dict, n: int = 2, cap: int = 3) -> dict:
    return {"n": n, "D": cap, "valid_order": cap, "coeffs": coeffs}


@pytest.mark.parametrize(
    "payload, output",
    [
        pytest.param(
            {"prescribed": {"r": {"components": {"1,1": inline_jet({"0 0": "1/0"})}}}},
            "report.json",
            id="zero-denominator",
        ),
        pytest.param(
            {"prescribed": {"r": {"components": {"1,1": inline_jet({"4 0": "1/1"})}}}},
            "report.json",
            id="monomial-outside-workspace",
        ),
        pytest.param(
            {
                "construction": "statistical-2d",
                "prescribed": {
                    "connection": {
                        "n": 2,
                        "symmetric": False,
                        "gamma": {"1;1,1": inline_jet({})},
                    }
                },
            },
            "report.json",
            id="incomplete-christoffel-table",
        ),
        pytest.param({}, "missing-directory/report.json", id="output-directory-missing"),
        pytest.param(
            {"prescribed": {"r": {"components": {"1,1": "random", "3,3": "random", "x": "one"}}}},
            "report.json",
            id="component-outside-workspace",
        ),
        pytest.param(
            {"prescribed": {"r": {"components": ["1,1"]}}},
            "report.json",
            id="components-not-an-object",
        ),
        pytest.param(
            {"prescribed": {"r": {"components": {"1,1": dict(inline_jet({}), valid_order=2.0)}}}},
            "report.json",
            id="float-valid-order",
        ),
    ],
)
def test_malformed_scenario_data_exits_1(tmp_path, capsys, payload, output):
    scenario = {"construction": "general", "n": 2, "D": 3, "seed": 1}
    scenario.update(payload, output=str(tmp_path / output))
    code = main(["run", str(write_scenario(tmp_path, "sc.json", scenario))])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("malformed scenario: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "payload, field, shown",
    [
        pytest.param({"n": True}, "n", "true", id="n"),
        pytest.param({"D": 3.9}, "D", "3.9", id="D"),
        pytest.param({"seed": 1.5}, "seed", "1.5", id="seed"),
        pytest.param({"random": {"degree": 2.5}}, "random.degree", "2.5", id="degree"),
        pytest.param(
            {"random": {"coeff_bound": False}}, "random.coeff_bound", "false", id="coeff_bound"
        ),
    ],
)
def test_scenario_integer_fields_exit_1(tmp_path, capsys, payload, field, shown):
    scenario = {"construction": "general", "n": 2, "D": 3, "seed": 1}
    scenario.update(payload, output=str(tmp_path / "report.json"))
    code = main(["run", str(write_scenario(tmp_path, "sc.json", scenario))])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"malformed scenario: {field} must be an integer, not {shown}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("mode, section", [("direct", "random"), ("round_trip", "round_trip")])
@pytest.mark.parametrize(
    "field, value, rule",
    [
        ("degree", -2, "in 0..D = 3"),
        ("degree", -1, "in 0..D = 3"),
        ("degree", 4, "in 0..D = 3"),
        ("coeff_bound", -1, ">= 0"),
    ],
)
def test_random_draw_bounds_out_of_range_exit_1(
    tmp_path, capsys, mode, section, field, value, rule
):
    # a negative degree drew all-zero data and built; a negative coeff_bound
    # died in randrange
    scenario = {"construction": "general", "n": 3, "D": 3, "seed": 1, "mode": mode}
    scenario.update({section: {field: value}}, output=str(tmp_path / "report.json"))
    code = main(["run", str(write_scenario(tmp_path, "sc.json", scenario))])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"malformed scenario: {section}.{field} must be {rule}, not {value}\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("mode, section", [("direct", "random"), ("round_trip", "round_trip")])
@pytest.mark.parametrize("bounds", [{"degree": 0}, {"degree": 3}, {"coeff_bound": 0}])
def test_random_draw_bounds_at_the_edges_build(tmp_path, capsys, mode, section, bounds):
    scenario = {"construction": "general", "n": 3, "D": 3, "seed": 1, "mode": mode}
    scenario.update({section: bounds}, output=str(tmp_path / "report.json"))
    code = main(["run", str(write_scenario(tmp_path, "sc.json", scenario))])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("mode", ["direct", "round_trip"])
def test_scenario_degree_cap_below_2_exits_1(tmp_path, capsys, mode):
    scenario = {"construction": "general", "n": 2, "D": 1, "seed": 1, "mode": mode}
    scenario.update(output=str(tmp_path / "report.json"))
    code = main(["run", str(write_scenario(tmp_path, "sc.json", scenario))])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "malformed scenario: need D >= 2\n"


@pytest.mark.parametrize(
    "payload, section",
    [
        pytest.param({"random": [1]}, "random", id="random"),
        pytest.param({"prescribed": [1]}, "prescribed", id="prescribed-ricci"),
        pytest.param(
            {"construction": "metric-2d", "prescribed": [1]}, "prescribed", id="prescribed"
        ),
        pytest.param({"free_data": [1]}, "free_data", id="free-data"),
        pytest.param(
            {"free_data": {"default": "zero", "slots": [1]}},
            "free_data.slots",
            id="free-data-slots",
        ),
        pytest.param({"mode": "round_trip", "round_trip": [1]}, "round_trip", id="round-trip"),
    ],
)
def test_scenario_section_not_an_object_exits_1(tmp_path, capsys, payload, section):
    scenario = {"construction": "general", "n": 2, "D": 3, "seed": 1}
    scenario.update(payload, output=str(tmp_path / "report.json"))
    code = main(["run", str(write_scenario(tmp_path, "sc.json", scenario))])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"malformed scenario: section {section!r} must be an object, not list\n"
    )


@pytest.mark.parametrize(
    "key, inline, reason",
    [
        ("r11", inline_jet({"1 0": "1/1"}, 2, 4), "degenerate-prescribed-tensor"),
        (
            "phi",
            {"ambient_n": 2, "jet": inline_jet({"1": "1/1"}, 1, 4)},
            "initial-value-vanishes",
        ),
    ],
)
def test_metric_2d_inline_data_is_not_rewritten(tmp_path, capsys, key, inline, reason):
    # data vanishing at the origin must reach the builder's rejection
    scenario = {
        "construction": "metric-2d",
        "n": 2,
        "D": 4,
        "seed": 1,
        "prescribed": {key: inline},
        "output": str(tmp_path / "report.json"),
    }
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": reason}


def tampered_general_report(tmp_path) -> dict:
    """A general n=2, D=4 report with one x1-dependent coefficient of a CK
    unknown changed: of the recorded checks only the Ricci residual sees it."""
    out_path = tmp_path / "rep.json"
    scenario = {
        "construction": "general",
        "n": 2,
        "D": 4,
        "seed": 3,
        "prescribed": {"r": "random"},
        "free_data": "random",
        "output": str(out_path),
    }
    assert main(["run", str(write_scenario(tmp_path, "sc.json", scenario))]) == 0
    data = json.loads(out_path.read_text())
    data["outputs"]["connection"]["value"]["gamma"]["1;2,1"]["coeffs"]["1 0"] = "917/1"
    return data


def empty_checks(data):
    data["checks"] = []


def orders_minus_one(data):
    for check in data["checks"]:
        check["zero_to_order"] = -1


def drop_ricci_residual(data):
    data["checks"] = [c for c in data["checks"] if c["name"] != "ricci-residual"]


@pytest.mark.parametrize("edit", [None, empty_checks, orders_minus_one, drop_ricci_residual])
def test_verify_takes_required_checks_from_construction(tmp_path, capsys, edit):
    data = tampered_general_report(tmp_path)
    if edit is not None:
        edit(data)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 2 and json.loads(out) == {"verified": False}


def declare_d5(data):
    data["D"] = 5


def declare_n3(data):
    data["n"] = 3


def drop_free_data(data):
    data["free_data"] = None


def empty_free_data_slots(data):
    data["free_data"]["free_functions"] = {}
    data["free_data"]["initial_slices"] = {}


def zero_denominator(data):
    data["outputs"]["connection"]["value"]["gamma"]["1;1,1"]["coeffs"]["0 0"] = "1/0"


@pytest.mark.parametrize(
    "edit, order",
    [
        (None, "-1"),
        (None, "5"),
        (declare_d5, None),
        (declare_n3, None),
        (drop_free_data, None),
        (empty_free_data_slots, None),
        (zero_denominator, None),
    ],
)
def test_verify_malformed_report_or_order_exits_1(tmp_path, capsys, edit, order):
    data = tampered_general_report(tmp_path)
    if edit is not None:
        edit(data)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    argv = ["verify", str(path)] + ([] if order is None else ["--order", order])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("malformed report: ") and captured.out == ""


def built_report(tmp_path, scenario: dict) -> dict:
    out_path = tmp_path / "built.json"
    path = write_scenario(tmp_path, "built_sc.json", dict(scenario, output=str(out_path)))
    assert main(["run", str(path)]) == 0
    return json.loads(out_path.read_text())


STATISTICAL_N4 = {"construction": "statistical", "n": 4, "D": 3, "seed": 1, "free_data": "random"}
METRIC_2D = {
    "construction": "metric-2d",
    "n": 2,
    "D": 5,
    "seed": 1,
    "prescribed": {key: "random" for key in ("r11", "r22", "phi", "psi")},
}


@pytest.mark.parametrize("scenario", [STATISTICAL_N4, METRIC_2D], ids=["statistical", "metric-2d"])
def test_verify_metric_tagged_bilinear_exits_1(tmp_path, capsys, scenario):
    data = built_report(tmp_path, scenario)
    data["outputs"]["metric"]["type"] = "bilinear"
    path = tmp_path / "retagged.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed report: outputs 'metric' ")
    assert "Bilinear, not a Metric" in captured.err


# each residual check: a report that runs it, and a jet the check compares
# (an output, or its target r), as a JSON path. Adding 1/7 to the jet's x1^d
# coefficient puts it over a denominator that 7 divides, which the compared
# jet's does not; the change must fail the check and make `verify` exit 2 at
# the degrees d listed first, and leave `verify` at exit 0 at those listed
# second, above what the check reads (the check's order for the target; for
# the determined symbols of statistical and the given connection of
# statistical-2d, whose products the Codazzi check forms to its order only)
GENERAL = {"construction": "general", "n": 2, "D": 4, "seed": 3, "free_data": "random"}
TRACE_FREE = {"construction": "trace-free-torsion", "n": 3, "D": 3, "seed": 3, "free_data": "random"}
STATISTICAL_N3 = {"construction": "statistical", "n": 3, "D": 3, "seed": 1, "free_data": "random"}
STATISTICAL_2D = {"construction": "statistical-2d", "n": 2, "D": 4, "seed": 1}
TRACE_FREE_2D = {"construction": "trace-free-statistical-2d", "n": 2, "D": 4, "seed": 1}
RESIDUAL_TAMPERS = [
    ("ricci-residual", GENERAL, ("outputs", "connection", "gamma", "1;2,2"), [1, 2, 3], []),
    ("ricci-residual", GENERAL, ("prescribed", "r", "comps", "1,2"), [0, 1, 2, 3], [4]),
    ("torsion-trace-zero", TRACE_FREE, ("outputs", "connection", "gamma", "2;1,2"), [1, 2, 3], []),
    ("metric-ricci-residual", METRIC_2D, ("outputs", "metric", "comps", "1,1"), [1, 2, 3], []),
    ("metric-ricci-residual", METRIC_2D, ("prescribed", "r", "comps", "1,1"), [0, 1, 2, 3], [4, 5]),
    ("codazzi", STATISTICAL_N3, ("outputs", "connection", "gamma", "3;2,2"), [1, 2], [3]),
    ("codazzi", STATISTICAL_2D, ("prescribed", "connection", "gamma", "2;1,1"), [0, 1, 2, 3], [4]),
    ("volume-determinant", TRACE_FREE_2D, ("outputs", "volume"), [1, 2, 3, 4], []),
]


def add_a_seventh(data: dict, path: tuple, degree: int) -> dict:
    """A copy of a report with 1/7 added to the x1^degree coefficient of the
    jet at path (section, name, then the table and key of a table entry)."""
    data = json.loads(json.dumps(data))
    section, name, *entry = path
    jet = data[section][name]["value"]
    for key in entry:
        jet = jet[key]
    monomial = " ".join(map(str, (degree,) + (0,) * (data["n"] - 1)))
    value = Fraction(jet["coeffs"].get(monomial, "0")) + Fraction(1, 7)
    jet["coeffs"][monomial] = f"{value.numerator}/{value.denominator}"
    assert value.denominator % 7 == 0
    return data


@pytest.mark.parametrize(
    "check, scenario, path, failing, passing",
    RESIDUAL_TAMPERS,
    ids=[f"{check}-{path[-1]}" for check, _, path, _, _ in RESIDUAL_TAMPERS],
)
def test_verify_reads_each_residual_check_to_its_order(
    tmp_path, capsys, check, scenario, path, failing, passing
):
    data = built_report(tmp_path, scenario)
    order = next(c["zero_to_order"] for c in data["checks"] if c["name"] == check)
    assert max(failing) <= order < min(passing, default=order + 1)
    for degree in failing + passing:
        tampered = add_a_seventh(data, path, degree)
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(tampered))
        capsys.readouterr()
        code, out = run_cli(capsys, "verify", str(bad))
        want = (2, False) if degree in failing else (0, True)
        assert (code, json.loads(out)) == (want[0], {"verified": want[1]}), degree
        assert _CHECKS[check](report_from_json(tampered), order) == (degree not in failing)


def retag_prescribed_slice(data):
    data["prescribed"]["phi"] = {"type": "jet", "value": data["prescribed"]["phi"]["value"]["jet"]}


def drop_conformal_factor(data):
    del data["outputs"]["conformal_factor"]


@pytest.mark.parametrize("edit", [retag_prescribed_slice, drop_conformal_factor])
def test_verify_prescribed_or_output_set_mismatch_exits_1(tmp_path, capsys, edit):
    data = built_report(tmp_path, METRIC_2D)
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("malformed report: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "r.json", "--order", "x"], "invalid int value: 'x'"),
        (["census", "general", "three"], "invalid int value: 'three'"),
        (["bogus"], "invalid choice"),
        ([], "required"),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: jetgeom") and message in captured.err


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # the parser is built once per process: a usage error and then a valid
    # verify give the outputs of two calls that each build it afresh
    built_report(tmp_path, METRIC_2D)
    report = str(tmp_path / "built.json")
    capsys.readouterr()

    def outputs(fresh: bool) -> list:
        got = []
        for argv in (["verify", report, "--order", "x"], ["verify", report]):
            if fresh:
                cli._parser.cache_clear()
            got.append((main(argv), *capsys.readouterr()))
        return got

    shared = outputs(False)
    assert cli._parser() is cli._parser()
    assert shared == outputs(True)
    (code, out, err), last = shared
    assert (code, out) == (1, "") and "invalid int value: 'x'" in err
    assert last == (0, json.dumps({"verified": True}) + "\n", "")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--order" in capsys.readouterr().out


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_quietly(monkeypatch):
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["census", "general", "3"]) == 1
    assert err.getvalue() == ""


# ---------------------------------------------------------------------------
# the 2D constructions exist only at n = 2


def no_draws(*args, **kwargs):
    raise AssertionError("data was drawn for a scenario that must be rejected")


@pytest.mark.parametrize("mode", ["direct", "round_trip"])
@pytest.mark.parametrize(
    "tag, n",
    [("metric-2d", 7), ("statistical-2d", 5), ("trace-free-statistical-2d", 3)],
)
def test_2d_construction_at_other_n_is_rejected_before_any_draw(
    tmp_path, capsys, monkeypatch, tag, n, mode
):
    for name in ("_draw", "random_connection", "random_normalized_metric"):
        monkeypatch.setattr(cli, name, no_draws)
    out_path = tmp_path / "report.json"
    scenario = {"construction": tag, "n": n, "D": 3, "seed": 1, "mode": mode}
    scenario.update(output=str(out_path))
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": "unsupported-construction"}
    assert not out_path.exists()


def forbid_draws(monkeypatch):
    """Every data draw of `run`, in either mode, raises."""
    draws = ("_draw", "random_connection", "random_normalized_metric")
    for name in draws + ("random_free_data", "zero_free_data", "random_prescribed_tensor"):
        monkeypatch.setattr(cli, name, no_draws)
    monkeypatch.setattr(cli, "_RICCI_CONNECTIONS", dict.fromkeys(cli._RICCI_CONNECTIONS, no_draws))


@pytest.mark.parametrize("mode", ["direct", "round_trip"])
@pytest.mark.parametrize(
    "tag, n",
    [
        ("general", 1),
        ("torsion-free", 1),
        ("trace-free-torsion", 1),
        ("trace-free-torsion", 2),
        ("statistical", 0),
        ("statistical", 2),
    ],
)
def test_census_construction_below_its_minimum_n_is_rejected_before_any_draw(
    tmp_path, capsys, monkeypatch, tag, n, mode
):
    forbid_draws(monkeypatch)
    out_path = tmp_path / "report.json"
    scenario = {"construction": tag, "n": n, "D": 3, "seed": 1, "mode": mode}
    scenario.update(output=str(out_path), free_data="random", prescribed={"r": "random"})
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": "unsupported-construction"}
    assert not out_path.exists()


@pytest.mark.parametrize("mode", ["direct", "round_trip"])
@pytest.mark.parametrize(
    "tag, n, cap",
    [
        ("general", 3, 40),
        ("statistical", 1000, 2),
        ("statistical", 12, 4),  # under the pair bound, over the node bound
        ("statistical", 20, 3),
        ("metric-2d", 2, 10**9),
        ("torsion-free", 10**6, 10**6),
    ],
)
def test_workspace_over_the_bound_is_rejected_before_any_draw(
    tmp_path, capsys, monkeypatch, tag, n, cap, mode
):
    forbid_draws(monkeypatch)
    out_path = tmp_path / "report.json"
    scenario = {"construction": tag, "n": n, "D": cap, "seed": 1, "mode": mode}
    scenario.update(output=str(out_path), free_data="random")
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": "workspace-too-large"}
    assert not out_path.exists()


def test_census_of_a_large_statistical_n_builds_its_lists_once():
    # the free-slot filter once rebuilt the set of determined symbols for
    # every key, so n = 30 took about 9 s
    start = perf_counter()
    cen = cli.census("statistical", 30)
    assert perf_counter() - start < 3.0
    assert len(cen.free_function_slots) + len(cen.determined) == 30 * 30 * 31 // 2 + 1


@pytest.mark.parametrize("tag", ["general", "trace-free-torsion", "torsion-free", "statistical"])
def test_census_over_the_workspace_bound_at_every_d_is_rejected(capsys, tag):
    # C(2n + 2, 2) product pairs: every D >= 2 is over the bound from n = 223 on
    assert not mi.exceeds_pair_bound(222, 2) and mi.exceeds_pair_bound(223, 2)
    start = perf_counter()
    code, out = run_cli(capsys, "census", tag, "223")
    assert perf_counter() - start < 2.0
    assert code == 2 and json.loads(out) == {"status": "rejected", "reason": "workspace-too-large"}


def test_workspace_bound_sits_between_c_22_16_and_c_23_17():
    # C(2n + D, D) at n = 3: 74613 pairs at D = 16, 100947 at D = 17
    cli._require_workspace_bound(3, 16)
    cli._require_workspace_bound(4, 8)  # the largest workspace the tests use
    with pytest.raises(RejectionError) as err:
        cli._require_workspace_bound(3, 17)
    assert err.value.reason == "workspace-too-large"


@pytest.mark.parametrize("n", range(2, 13))
def test_node_bound_counts_the_keys_of_the_codazzi_spec(n):
    # statistical runs are admitted exactly while the node's key count times
    # C(2n + D, D) is within the bound; other constructions have no node
    keys = len(_codazzi_spec(n).determined)
    for cap in range(2, 8):
        if mi.exceeds_pair_bound(n, cap):
            continue
        cli._require_node_bound("general", n, cap)
        if keys * comb(2 * n + cap, cap) <= MAX_NODE_PAIRS:
            cli._require_node_bound("statistical", n, cap)
        else:
            with pytest.raises(RejectionError) as err:
                cli._require_node_bound("statistical", n, cap)
            assert err.value.reason == "workspace-too-large"


def test_node_bound_sits_between_n_10_d_3_and_n_11_d_3():
    # 276 keys over C(23, 3) pairs is 488796, 375 over C(25, 3) is 862500;
    # the benchmark's n = 4, D = 4 is 5445
    cli._require_node_bound("statistical", 10, 3)
    cli._require_node_bound("statistical", 4, 4)
    with pytest.raises(RejectionError) as err:
        cli._require_node_bound("statistical", 11, 3)
    assert err.value.reason == "workspace-too-large"


def test_verify_rejects_2d_report_at_other_n(tmp_path, capsys):
    # a statistical-2d report made from a 3D Levi-Civita pair passes every
    # check of the construction, but the construction does not exist at n = 3
    g0 = random_normalized_metric(1, 3, 3, 2, 2)
    prescribed = {
        "connection": levi_civita(g0),
        "g11": g0.comp(1, 1),
        "init12": g0.comp(1, 2).restrict_x1(),
        "init22": g0.comp(2, 2).restrict_x1(),
    }
    checks = [
        Check("codazzi", 2, True),
        Check("metric-normalized-at-zero", 0, True),
        Check("initial-slices", 3, True),
    ]
    report = BuildReport("statistical-2d", 3, 3, prescribed, None, {"metric": g0}, checks)
    path = tmp_path / "statistical-2d-n3.json"
    path.write_text(canonical_dumps(report_to_json(report)))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "malformed report: statistical-2d needs n = 2, got 3\n"


# ---------------------------------------------------------------------------
# free_data.slots overrides


def run_report(tmp_path, capsys, scenario: dict) -> dict:
    out_path = tmp_path / "report.json"
    path = write_scenario(tmp_path, "sc.json", dict(scenario, output=str(out_path)))
    code, out = run_cli(capsys, "run", str(path))
    assert code == 0 and json.loads(out)["status"] == "ok"
    return json.loads(out_path.read_text())


def test_slot_override_of_the_readme_example(tmp_path, capsys):
    scenario = {
        "construction": "torsion-free",
        "n": 3,
        "D": 4,
        "seed": 7,
        "prescribed": {"r": "zero"},
        "free_data": {"default": "random", "slots": {"2;1,1": "zero"}},
    }
    data = run_report(tmp_path, capsys, scenario)
    assert data["free_data"]["free_functions"]["2;1,1"]["coeffs"] == {}
    assert data["outputs"]["connection"]["value"]["gamma"]["2;1,1"]["coeffs"] == {}
    # the other slots keep their random draws
    assert data["free_data"]["free_functions"]["3;1,1"]["coeffs"] != {}


def test_metric_slot_override_is_normalized(tmp_path, capsys):
    scenario = {
        "construction": "statistical",
        "n": 3,
        "D": 3,
        "seed": 1,
        "free_data": {"default": "zero", "slots": {"g;1,1": "zero", "g;2,2": "random"}},
    }
    data = run_report(tmp_path, capsys, scenario)
    assert data["free_data"]["free_functions"]["g;1,1"]["coeffs"] == {"0 0 0": "1/1"}
    g22 = data["free_data"]["initial_slices"]["g;2,2"]["jet"]["coeffs"]
    assert g22["0 0"] == "1/1" and len(g22) > 1


@pytest.mark.parametrize(
    "construction, n, slots, reason",
    [
        pytest.param(
            "statistical",
            3,
            {"g;2,2": {"ambient_n": 3, "jet": inline_jet({"1 0": "1/1"}, 2, 3)}},
            "normalization-violated",
            id="inline-slice-off-normalization",
        ),
        pytest.param("general", 2, {"phi": "random"}, "slot-mismatch", id="phi-without-gauge"),
    ],
)
def test_slot_override_rejections(tmp_path, capsys, construction, n, slots, reason):
    out_path = tmp_path / "report.json"
    scenario = {
        "construction": construction,
        "n": n,
        "D": 3,
        "seed": 1,
        "free_data": {"default": "zero", "slots": slots},
        "output": str(out_path),
    }
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": reason}
    assert not out_path.exists()


FIRST_ORDER = [
    ("general", 2),
    ("trace-free-torsion", 3),
    ("torsion-free", 2),
    ("statistical", 3),
    ("statistical-2d", 2),
    ("trace-free-statistical-2d", 2),
]


@pytest.mark.parametrize("valid_order", [0, 2])
@pytest.mark.parametrize("construction, n", FIRST_ORDER)
def test_inline_slice_below_d_is_rejected(tmp_path, capsys, construction, n, valid_order):
    # the solve writes its unknowns to order D, so their initial slices
    # cannot be reproduced from a slice valid to a lower order
    out_path = tmp_path / "report.json"
    x2 = " ".join(["1"] + ["0"] * (n - 2))
    jet = dict(inline_jet({x2: "1/2"}, n - 1, 3), valid_order=valid_order)
    scenario = {"construction": construction, "n": n, "D": 3, "seed": 1, "output": str(out_path)}
    if construction.endswith("-2d"):
        scenario["prescribed"] = {"init12": {"ambient_n": n, "jet": jet}}
    else:
        slot = cli.census(construction, n).initial_slice_slots[0]
        scenario["free_data"] = {"default": "random", "slots": {slot: {"ambient_n": n, "jet": jet}}}
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": "initial-slice-not-exact"}
    assert not out_path.exists()


@pytest.mark.parametrize("valid_order", [0, 3])
@pytest.mark.parametrize("key", ["phi", "psi"])
def test_metric_2d_slice_below_d_is_rejected(tmp_path, capsys, key, valid_order):
    # h and p = (h)_1 are written to order D from phi and psi: a slice valid
    # to a lower order cannot give h to order D
    out_path = tmp_path / "report.json"
    jet = dict(inline_jet({"0": "1/1", "1": "1/2"}, 1, 6), valid_order=valid_order)
    scenario = {
        "construction": "metric-2d",
        "n": 2,
        "D": 6,
        "seed": 1,
        "prescribed": {key: {"ambient_n": 2, "jet": jet}},
        "output": str(out_path),
    }
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 2
    assert json.loads(out) == {"status": "rejected", "reason": "initial-slice-not-exact"}
    assert not out_path.exists()


RICCI_CONNECTIONS = [("general", 2), ("trace-free-torsion", 3), ("torsion-free", 2)]


@pytest.mark.parametrize("valid_order, built", [(0, False), (2, False), (3, True), (4, True)])
@pytest.mark.parametrize("construction, n", RICCI_CONNECTIONS)
def test_prescribed_ricci_below_d_minus_one_is_rejected(
    tmp_path, capsys, construction, n, valid_order, built
):
    # Gamma at degree d takes r at degree d - 1: an r valid to D - 1 gives
    # Gamma to D, and one valid below cannot
    out_path = tmp_path / "report.json"
    x1 = " ".join(["1"] + ["0"] * (n - 1))
    jet = dict(inline_jet({x1: "1/2"}, n, 4), valid_order=valid_order)
    scenario = {
        "construction": construction,
        "n": n,
        "D": 4,
        "seed": 1,
        "prescribed": {"r": {"components": {"2,1": jet}}},
        "free_data": "random",
        "output": str(out_path),
    }
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    if built:
        assert code == 0 and json.loads(out) == {"status": "ok", "report": str(out_path)}
    else:
        assert code == 2
        assert json.loads(out) == {"status": "rejected", "reason": "prescribed-tensor-not-exact"}
        assert not out_path.exists()


@pytest.mark.parametrize("construction, n", RICCI_CONNECTIONS)
def test_round_trip_ricci_valid_to_d_minus_one_builds(tmp_path, capsys, construction, n):
    out_path = tmp_path / "report.json"
    scenario = {
        "construction": construction,
        "n": n,
        "D": 3,
        "seed": 2,
        "mode": "round_trip",
        "output": str(out_path),
    }
    code, _ = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    assert code == 0
    r = report_from_json(json.loads(out_path.read_text())).prescribed["r"]
    assert {jet.valid_order for jet in r.comps.values()} == {2}


@pytest.mark.parametrize("valid_order, built", [(0, False), (5, False), (6, True)])
@pytest.mark.parametrize("key", ["r11", "r22"])
def test_metric_2d_prescribed_below_d_is_rejected(tmp_path, capsys, key, valid_order, built):
    # h at degree d takes r11 and r22 at degree d
    out_path = tmp_path / "report.json"
    jet = dict(inline_jet({"0 0": "1/1", "1 0": "1/2"}, 2, 6), valid_order=valid_order)
    scenario = {
        "construction": "metric-2d",
        "n": 2,
        "D": 6,
        "seed": 1,
        "prescribed": {key: jet},
        "output": str(out_path),
    }
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    if built:
        assert code == 0 and json.loads(out) == {"status": "ok", "report": str(out_path)}
    else:
        assert code == 2
        assert json.loads(out) == {"status": "rejected", "reason": "prescribed-tensor-not-exact"}
        assert not out_path.exists()


def assert_built_or_rejected(tmp_path, capsys, scenario: dict, built: bool, reason: str):
    out_path = tmp_path / "report.json"
    scenario = dict(scenario, seed=1, output=str(out_path))
    code, out = run_cli(capsys, "run", str(write_scenario(tmp_path, "sc.json", scenario)))
    if built:
        assert code == 0 and json.loads(out) == {"status": "ok", "report": str(out_path)}
    else:
        assert code == 2
        assert json.loads(out) == {"status": "rejected", "reason": reason}
        assert not out_path.exists()


@pytest.mark.parametrize("valid_order, built", [(3, False), (4, True)])
@pytest.mark.parametrize("construction, n", RICCI_CONNECTIONS)
def test_prescribed_ricci_free_function_below_d_is_rejected(
    tmp_path, capsys, construction, n, valid_order, built
):
    # Gamma at degree d takes the free functions at degree d
    x1 = " ".join(["1"] + ["0"] * (n - 1))
    slot = cli.census(construction, n).free_function_slots[0]
    jet = dict(inline_jet({x1: "1/2"}, n, 4), valid_order=valid_order)
    scenario = {
        "construction": construction,
        "n": n,
        "D": 4,
        "prescribed": {"r": "random"},
        "free_data": {"default": "random", "slots": {slot: jet}},
    }
    assert_built_or_rejected(tmp_path, capsys, scenario, built, "free-function-not-exact")


@pytest.mark.parametrize("valid_order, built", [(3, False), (4, True)])
def test_torsion_free_gauge_below_d_is_rejected(tmp_path, capsys, valid_order, built):
    jet = dict(inline_jet({"1 1": "1/2"}, 2, 4), valid_order=valid_order)
    scenario = {
        "construction": "torsion-free",
        "n": 2,
        "D": 4,
        "free_data": {"default": "random", "slots": {"phi": jet}},
    }
    assert_built_or_rejected(tmp_path, capsys, scenario, built, "free-function-not-exact")


@pytest.mark.parametrize(
    "slot, valid_order, built",
    [("g;1,1", 3, False), ("g;1,1", 4, True), ("1;1,1", 2, False), ("1;1,1", 3, True)],
)
def test_statistical_free_data_below_its_order_is_rejected(
    tmp_path, capsys, slot, valid_order, built
):
    # g at degree d takes g11 at degree d and the free symbols at degree d - 1
    jet = dict(inline_jet({"0 0 0": "1/1", "1 0 0": "1/2"}, 3, 4), valid_order=valid_order)
    scenario = {
        "construction": "statistical",
        "n": 3,
        "D": 4,
        "free_data": {"default": "random", "slots": {slot: jet}},
    }
    assert_built_or_rejected(tmp_path, capsys, scenario, built, "free-function-not-exact")


def inline_connection(conn, valid_order: int) -> dict:
    data = connection_to_json(conn)
    for jet in data["gamma"].values():
        jet["valid_order"] = valid_order
    return data


@pytest.mark.parametrize("valid_order, built", [(2, False), (3, True)])
@pytest.mark.parametrize("construction", ["statistical-2d", "trace-free-statistical-2d"])
def test_2d_statistical_connection_below_d_minus_one_is_rejected(
    tmp_path, capsys, construction, valid_order, built
):
    # the metric at degree d takes the connection at degree d - 1
    conn = levi_civita(random_normalized_metric(5, 2, 4, 3, 2))
    scenario = {
        "construction": construction,
        "n": 2,
        "D": 4,
        "prescribed": {"connection": inline_connection(conn, valid_order)},
    }
    assert_built_or_rejected(tmp_path, capsys, scenario, built, "prescribed-tensor-not-exact")


@pytest.mark.parametrize("valid_order, built", [(3, False), (4, True)])
def test_statistical_2d_g11_below_d_is_rejected(tmp_path, capsys, valid_order, built):
    jet = dict(inline_jet({"0 0": "1/1", "0 1": "1/2"}, 2, 4), valid_order=valid_order)
    scenario = {"construction": "statistical-2d", "n": 2, "D": 4, "prescribed": {"g11": jet}}
    assert_built_or_rejected(tmp_path, capsys, scenario, built, "prescribed-tensor-not-exact")


# ---------------------------------------------------------------------------
# malformed scenarios and tampered reports


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param(
            {"free_data": {"default": "zero", "slots": {"3;1,1": "zero"}}},
            "slot '3;1,1' is not in the census",
            id="slot-outside-census",
        ),
        pytest.param({"mode": "sideways"}, "bad mode 'sideways'", id="mode"),
        pytest.param(
            {"prescribed": {"r": {"components": {"1,1": "purple"}}}},
            "bad jet policy 'purple'",
            id="jet-policy",
        ),
        pytest.param({"free_data": "purple"}, "bad free-data default 'purple'", id="default"),
        pytest.param(
            {"construction": "kaehler"}, "unknown construction 'kaehler'", id="direct-construction"
        ),
        pytest.param(
            {"construction": "kaehler", "mode": "round_trip"},
            "round_trip mode does not support 'kaehler'",
            id="round-trip-construction",
        ),
    ],
)
def test_malformed_scenario_choices_exit_1(tmp_path, capsys, payload, message):
    out_path = tmp_path / "report.json"
    scenario = {"construction": "general", "n": 2, "D": 3, "seed": 1}
    scenario.update(payload, output=str(out_path))
    code = main(["run", str(write_scenario(tmp_path, "sc.json", scenario))])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"malformed scenario: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command, what", [("run", "scenario"), ("verify", "report")])
def test_deeply_nested_json_input_exits_1(tmp_path, capsys, command, what):
    # too deep for the JSON parser: malformed input, not a RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed {what}: JSON nested too deeply to read\n"


def unknown_construction(data):
    data["construction"] = "kaehler"


def asymmetric_symmetric_table(data):
    gamma = data["outputs"]["connection"]["value"]["gamma"]
    gamma["1;1,2"]["coeffs"]["1 0"] = "917/1"


def unknown_type_tag(data):
    data["outputs"]["connection"]["type"] = "tensor"


def checks_an_object(data):
    data["checks"] = {"a": 1}


def check_a_string(data):
    data["checks"] = ["a"]


def float_valid_order(data):
    data["outputs"]["connection"]["value"]["gamma"]["1;1,1"]["valid_order"] = 3.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (unknown_construction, "unknown construction 'kaehler'"),
        (asymmetric_symmetric_table, "table marked symmetric"),
        (unknown_type_tag, "'tensor'"),
        (
            unknown_type_tag,
            "unknown type tag 'tensor'; known tags: jet, slice, connection, metric, bilinear",
        ),
        (checks_an_object, "checks must be a list, not dict"),
        (check_a_string, "check must be an object, not str"),
        (float_valid_order, "valid_order must be an integer or null, not 3.0"),
    ],
)
def test_verify_tampered_report_exits_1(tmp_path, capsys, edit, message):
    scenario = {"construction": "torsion-free", "n": 2, "D": 3, "seed": 1, "free_data": "random"}
    data = built_report(tmp_path, scenario)
    edit(data)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("malformed report: ") and message in captured.err
