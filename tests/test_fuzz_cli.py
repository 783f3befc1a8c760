"""Property test of the CLI boundary: on generated scenario JSON and on
mutated report JSON, `main` returns 0, 1 or 2 with the documented output and
never lets an exception escape. A `run` whose writer mutates the report
exits 2, or exits 0 and leaves a report that `verify` accepts; a `run` says
on stderr, in one line, why its read-back failed, and is silent otherwise.

The reports are built in-process from small scenarios. A mutation drops a
node of the report tree, replaces it, or inserts a key into an object; the
values are lists, objects, floats, integers (huge ones at the "n" and "D"
keys), strings, booleans and null. A coefficient that is not a string is
malformed, and so is an "n", "D", "ambient_n" or check "zero_to_order" that
is not a JSON integer, a "symmetric" or check "passed" that is not a JSON
boolean, or a "construction" or check "name" that is not a JSON string; such
a mutation must exit 1. A dropped key that a reader reads exits 1 with a
message that names the key and its section. A report that stores a failed
check never verifies.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jetgeom import serialize
from jetgeom.cli import _run_direct, main
from jetgeom.serialize import canonical_dumps, report_to_json

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

TAGS = (
    "general",
    "trace-free-torsion",
    "torsion-free",
    "statistical",
    "metric-2d",
    "statistical-2d",
    "trace-free-statistical-2d",
)

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([10**6, 10**9]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)
HUGE = st.sampled_from([10**6, 10**9, -1, 0])


def or_junk(valid):
    """valid, or in one draw of eight a junk value of any JSON type."""
    return st.integers(0, 7).flatmap(lambda i: JUNK if i == 0 else valid)


def call(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_read_back_reason(code: int, err: str):
    """A `run` is silent on stderr unless its read-back failed (exit 2 with
    verification-failed), and then says why in one line."""
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("read-back ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def assert_malformed(out: str, err: str, prefix: str):
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# scenarios

INLINE_JET = st.fixed_dictionaries(
    {
        "n": or_junk(st.integers(1, 3)),
        "D": or_junk(st.integers(2, 3)),
        "valid_order": or_junk(st.integers(0, 3)),
        "coeffs": or_junk(
            st.dictionaries(
                st.sampled_from(["0 0", "1 0", "0 0 0", "", "x"]),
                or_junk(st.sampled_from(["1/1", "-1/2", "0/1", "1/0"])),
                max_size=2,
            )
        ),
    }
)
POLICY = or_junk(st.sampled_from(["zero", "one", "random"]) | INLINE_JET)
SLOTS = st.dictionaries(
    st.sampled_from(["phi", "1;1,1", "2;1,2", "g;1,1", "g;1,2", "g;2,2"]), POLICY, max_size=2
)
# the random draws' bounds, valid and not, of the "random" and "round_trip" sections
BOUNDS = st.fixed_dictionaries(
    {}, optional={key: or_junk(st.integers(-1, 3)) for key in ("degree", "coeff_bound")}
)
SCENARIOS = st.fixed_dictionaries(
    {
        "construction": or_junk(st.sampled_from(TAGS)),
        "n": or_junk(st.sampled_from([2, 2, 3, 3, 1, 10**6])),
        "D": or_junk(st.sampled_from([2, 2, 3, 3, 1, 10**9])),
    },
    optional={
        "seed": or_junk(st.integers(0, 3)),
        "mode": or_junk(st.sampled_from(["direct", "round_trip"])),
        "free_data": or_junk(
            st.sampled_from(["zero", "random"])
            | st.fixed_dictionaries({}, optional={"default": POLICY, "slots": or_junk(SLOTS)})
        ),
        "prescribed": or_junk(
            st.dictionaries(
                st.sampled_from(["r", "r11", "r22", "phi", "psi", "g11", "init12", "init22"]),
                POLICY,
                max_size=3,
            )
        ),
        "random": or_junk(BOUNDS),
        "round_trip": or_junk(BOUNDS),
    },
)


BELOW_D_SLICE = {"n": 1, "D": 2, "valid_order": 1, "coeffs": {"1": "1/2"}}
BELOW_D_MINUS_ONE_R = {"n": 2, "D": 3, "valid_order": 1, "coeffs": {"1 0": "1/2"}}


@SETTINGS
@example(
    scenario={
        "construction": "statistical-2d",
        "n": 2,
        "D": 2,
        "prescribed": {"init12": BELOW_D_SLICE},
    }
)
@example(
    scenario={
        "construction": "metric-2d",
        "n": 2,
        "D": 2,
        "prescribed": {"psi": BELOW_D_SLICE},
    }
)
@example(
    scenario={
        "construction": "general",
        "n": 2,
        "D": 3,
        "prescribed": {"r": {"components": {"1,2": BELOW_D_MINUS_ONE_R}}},
    }
)
@example(
    scenario={
        "construction": "general",
        "n": 2,
        "D": 3,
        "free_data": {"default": "random", "slots": {"1;1,1": BELOW_D_MINUS_ONE_R}},
    }
)
@example(scenario={"construction": "statistical", "n": 12, "D": 4, "mode": "round_trip"})
@example(
    scenario={
        "construction": "general",
        "n": 3,
        "D": 3,
        "mode": "round_trip",
        "round_trip": {"degree": -2},
    }
)
@example(scenario={"construction": "general", "n": 2, "D": 2, "random": {"coeff_bound": -1}})
@given(scenario=or_junk(SCENARIOS))
def test_run_on_generated_scenarios_keeps_the_exit_contract(tmp_path_factory, scenario):
    folder = tmp_path_factory.mktemp("run")
    output = folder / "report.json"
    if isinstance(scenario, dict):
        scenario["output"] = str(output)
    path = folder / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = call("run", str(path))
    assert code in (0, 1, 2)
    if code == 1:
        assert_malformed(out, err, "malformed scenario: ")
        return
    status = json.loads(out)
    assert_read_back_reason(2 if status["status"] == "verification-failed" else 0, err)
    if code == 0:
        assert status == {"status": "ok", "report": str(output)}
    elif status["status"] == "rejected":
        assert set(status) == {"status", "reason"} and isinstance(status["reason"], str)
    else:
        assert status == {"status": "verification-failed", "report": str(output)}


# ---------------------------------------------------------------------------
# mutated reports

SMALL_SCENARIOS = {
    "general": {"construction": "general", "n": 2, "D": 2, "prescribed": {"r": "random"}},
    "torsion-free": {"construction": "torsion-free", "n": 2, "D": 2},
    "statistical": {"construction": "statistical", "n": 3, "D": 2},
    "metric-2d": {
        "construction": "metric-2d",
        "n": 2,
        "D": 3,
        "prescribed": {key: "random" for key in ("r11", "r22", "phi", "psi")},
    },
    "trace-free-statistical-2d": {"construction": "trace-free-statistical-2d", "n": 2, "D": 2},
}


@lru_cache(maxsize=None)
def report(name: str) -> str:
    """The canonical report text of a small scenario, built in-process."""
    scenario = dict(SMALL_SCENARIOS[name], seed=1, free_data="random")
    return canonical_dumps(report_to_json(_run_direct(scenario)))


def node_paths(tree, prefix=()):
    yield prefix
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from node_paths(value, prefix + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from node_paths(value, prefix + (i,))


def node_at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


# header field -> the one JSON type its value may have
HEADERS = {
    "n": int, "D": int, "ambient_n": int, "zero_to_order": int,
    "symmetric": bool, "passed": bool, "construction": str, "name": str,
}


def mutate(tree, mutation):
    """(the mutated tree, whether a coefficient became a non-string or a
    header field a value of another JSON type)."""
    action, path, *rest = mutation
    tree = copy.deepcopy(tree)
    if action == "insert":
        key, value = rest
        node_at(tree, path)[key] = value
        return tree, path[-1:] == ("coeffs",) and not isinstance(value, str)
    if not path:
        return (rest[0] if action == "replace" else None), False
    parent = node_at(tree, path[:-1])
    if action == "drop":
        del parent[path[-1]]
        return tree, False
    parent[path[-1]] = rest[0]
    header = HEADERS.get(path[-1]) if isinstance(path[-1], str) else None
    if header is not None:
        return tree, type(rest[0]) is not header
    return tree, path[-2:-1] == ("coeffs",) and not isinstance(rest[0], str)


@st.composite
def mutations(draw, name: str):
    tree = json.loads(report(name))
    path = draw(st.sampled_from(list(node_paths(tree))))
    node = node_at(tree, path)
    actions = ["drop", "replace"] + (["insert"] if isinstance(node, dict) else [])
    action = draw(st.sampled_from(actions))
    huge = path and path[-1] in ("n", "D", "ambient_n")
    value = draw(or_junk(HUGE) if huge else or_junk(INLINE_JET))
    if action == "insert":
        key = draw(st.sampled_from(["n", "D", "0 0", "1 0 0", "extra"]) | st.text(max_size=3))
        return ("insert", path, key, value)
    return (action, path, value)


def stores_a_failed_check(tree) -> bool:
    checks = tree.get("checks") if isinstance(tree, dict) else None
    return isinstance(checks, list) and any(
        isinstance(c, dict) and c.get("passed") is False for c in checks
    )


OUTPUT_GAMMA = ("outputs", "connection", "value", "gamma", "1;1,1")
# its stored coefficients are "0 0": "2/1", "0 1": "-1/1", "1 0": "-2/1"
GAMMA_COEFFS = OUTPUT_GAMMA + ("coeffs",)
OUTPUT_METRIC_22 = ("outputs", "metric", "value", "comps", "2,2", "coeffs")
MUTATED_REPORTS = st.sampled_from(sorted(SMALL_SCENARIOS)).flatmap(
    lambda name: st.tuples(st.just(name), mutations(name))
)


@SETTINGS
@example(case=("general", ("replace", ("outputs",), [])))
@example(case=("general", ("replace", OUTPUT_GAMMA + ("coeffs",), [])))
@example(case=("general", ("replace", OUTPUT_GAMMA + ("n",), 1000000)))
@example(case=("general", ("insert", OUTPUT_GAMMA + ("coeffs",), "0 0", 0.5)))
@example(case=("general", ("replace", ("outputs", "connection", "value", "n"), 10**6)))
@example(case=("general", ("replace", ("prescribed", "r", "value", "n"), 10**6)))
@example(case=("statistical", ("replace", ("outputs", "metric", "value", "n"), 10**6)))
@example(case=("general", ("insert", GAMMA_COEFFS, "0 0", "2/4")))
@example(case=("general", ("insert", GAMMA_COEFFS, "0 0", " 1/2")))
@example(case=("general", ("insert", GAMMA_COEFFS, "0 0", "1/0")))
@example(case=("general", ("insert", GAMMA_COEFFS, "+1 0", "1/1")))
@example(case=("general", ("replace", ("n",), 2.0)))
@example(case=("metric-2d", ("replace", ("n",), 2.0)))
@example(case=("metric-2d", ("replace", ("D",), True)))
@example(case=("metric-2d", ("replace", ("prescribed", "phi", "value", "ambient_n"), 2.0)))
@example(case=("metric-2d", ("replace", ("prescribed", "r", "value", "n"), 2.0)))
@example(case=("general", ("replace", ("outputs", "connection", "value", "symmetric"), 0)))
# the first check's recorded order is 1
@example(case=("torsion-free", ("replace", ("checks", 0, "zero_to_order"), 1.0)))
@example(case=("torsion-free", ("replace", ("checks", 1, "passed"), "no")))
@example(case=("torsion-free", ("replace", ("checks", 1, "passed"), False)))
# a value's type tag, and the checks as a list of objects
@example(case=("general", ("replace", ("outputs", "connection", "type"), "foo")))
@example(case=("torsion-free", ("replace", ("checks",), {"a": 1})))
@example(case=("torsion-free", ("replace", ("checks", 0), "a")))
# a missing key, and a construction or check name that is not a string
@example(case=("general", ("drop", GAMMA_COEFFS, None)))
@example(case=("torsion-free", ("drop", ("checks", 1, "name"), None)))
@example(case=("general", ("drop", ("outputs",), None)))
@example(case=("torsion-free", ("replace", ("construction",), ["x"])))
@example(case=("torsion-free", ("replace", ("checks", 1, "name"), 5)))
# one entry's x1 and x2 coefficients both bumped by 1, so two or three
# checks fail at once: `verify` stops at the first, with the verdict and exit
# code of running them all. ricci-residual and free-functions:
@example(case=("general", ("replace", GAMMA_COEFFS, {"0 0": "2/1", "1 0": "-1/1"})))
# ricci-residual and initial-slices:
@example(case=("general", ("replace", OUTPUT_GAMMA[:-1] + ("1;2,1", "coeffs"), {
    "0 1": "1/1", "1 1": "-5/1", "2 0": "1/2"})))
@example(case=("torsion-free", ("replace", OUTPUT_GAMMA[:-1] + ("1;2,2", "coeffs"), {
    "1 0": "4/1", "1 1": "-2/1", "2 0": "-9/2"})))
# codazzi and initial-slices:
@example(case=("statistical", ("replace", OUTPUT_METRIC_22, {
    "0 0 0": "1/1", "0 1 0": "2/1", "1 0 0": "4/1", "1 0 1": "1/1", "1 1 0": "4/1",
    "2 0 0": "1/2"})))
# codazzi, volume-determinant and initial-slices:
@example(case=("trace-free-statistical-2d", ("replace", OUTPUT_METRIC_22, {
    "0 0": "1/1", "0 1": "1/1", "2 0": "6/1"})))
@given(case=MUTATED_REPORTS)
def test_verify_on_mutated_reports_keeps_the_exit_contract(tmp_path_factory, case):
    name, mutation = case
    tree, malformed = mutate(json.loads(report(name)), mutation)
    path = tmp_path_factory.mktemp("verify") / "mutated.json"
    path.write_text(json.dumps(tree))
    code, out, err = call("verify", str(path))
    assert code in (0, 1, 2)
    if code == 1:
        assert_malformed(out, err, "malformed report: ")
    else:
        assert not malformed and not (code == 0 and stores_a_failed_check(tree))
        assert err == "" and out == json.dumps({"verified": code == 0}) + "\n"


VERIFIED = json.dumps({"verified": True}) + "\n"
REJECTED = json.dumps({"verified": False}) + "\n"


@SETTINGS
# the same value in other text, and a key no reader reads: both read back as built
@example(case=("general", ("insert", GAMMA_COEFFS, "0 0", "4/2")))
@example(case=("general", ("insert", ("outputs", "connection"), "extra", 0)))
@example(case=("torsion-free", ("replace", ("outputs", "connection", "value", "symmetric"), False)))
@example(case=("metric-2d", ("replace", ("outputs", "metric", "type"), "bilinear")))
@example(case=("torsion-free", ("drop", ("checks", 3), None)))
@given(case=MUTATED_REPORTS)
def test_run_on_mutated_written_reports_fails_or_leaves_a_verified_one(tmp_path_factory, case):
    # whatever the writer writes, `run` exits 2 with verification-failed, or
    # it prints ok and `verify` accepts the report it wrote
    name, mutation = case
    folder = tmp_path_factory.mktemp("run")
    output, scenario = folder / "report.json", folder / "scenario.json"
    scenario.write_text(
        json.dumps(dict(SMALL_SCENARIOS[name], seed=1, free_data="random", output=str(output)))
    )
    with pytest.MonkeyPatch.context() as patch:
        real = serialize.report_text
        written = lambda built: canonical_dumps(mutate(json.loads(real(built)), mutation)[0])
        patch.setattr(serialize, "report_text", written)
        code, out, err = call("run", str(scenario))
    status = "ok" if code == 0 else "verification-failed"
    assert code in (0, 2)
    assert out == json.dumps({"status": status, "report": str(output)}) + "\n"
    assert_read_back_reason(code, err)
    if code == 0:
        assert call("verify", str(output)) == (0, VERIFIED, "")


@pytest.mark.parametrize(
    "key, value, expected",
    [
        # a coefficient the integer reader leaves to the Fraction parse
        ("0 0", "2/4", (2, REJECTED, "")),
        ("0 0", " 1/2", (2, REJECTED, "")),
        ("0 0", "4/2", (0, VERIFIED, "")),
        ("0 0", " 2/1", (0, VERIFIED, "")),
        ("0 0", "02/01", (0, VERIFIED, "")),
        ("0 0", "1/0", (1, "", "malformed report: Fraction(1, 0)\n")),
        # a key outside the key table: int reads "+1" and the last value wins
        ("+1 0", "1/1", (2, REJECTED, "")),
        ("+1 0", "-2/1", (0, VERIFIED, "")),
        ("1  0", "-2/1", (0, VERIFIED, "")),
        # Fraction reads it from Python 3.12 on; the reader on no version
        ("0 0", "1 / 2", (1, "", "malformed report: coefficient '1 / 2' has whitespace next to '/'\n")),
    ],
)
def test_verify_reads_unusual_coefficient_text_as_fraction_does(tmp_path, key, value, expected):
    tree, _ = mutate(json.loads(report("general")), ("insert", GAMMA_COEFFS, key, value))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(tree))
    assert call("verify", str(path)) == expected


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("general", ("n",), 2.0, "report n must be an integer, not 2.0"),
        ("metric-2d", ("n",), 2.0, "report n must be an integer, not 2.0"),
        ("metric-2d", ("D",), True, "report D must be an integer, not True"),
        (
            "metric-2d",
            ("prescribed", "phi", "value", "ambient_n"),
            2.0,
            "slice ambient_n must be an integer, not 2.0",
        ),
        ("metric-2d", ("prescribed", "r", "value", "n"), 2.0, "table n must be an integer, not 2.0"),
        ("general", ("construction",), ["x"], "report construction must be a string, not ['x']"),
        (
            "general",
            ("outputs", "connection", "value", "symmetric"),
            0,
            "symmetric must be a boolean, not 0",
        ),
        (
            "general",
            ("outputs", "connection", "value", "gamma", "1;1,1", "D"),
            2.0,
            "jet D must be an integer, not 2.0",
        ),
    ],
)
def test_verify_reads_headers_as_json_integers_and_booleans(tmp_path, name, path, value, message):
    tree, _ = mutate(json.loads(report(name)), ("replace", path, value))
    file = tmp_path / "report.json"
    file.write_text(json.dumps(tree))
    assert call("verify", str(file)) == (1, "", f"malformed report: {message}\n")


@pytest.mark.parametrize(
    "path, value, expected",
    [
        # the recorded order of the first check, ricci-residual, is 1
        (("checks", 0, "zero_to_order"), 1.0, "check zero_to_order must be an integer, not 1.0"),
        (("checks", 0, "zero_to_order"), True, "check zero_to_order must be an integer, not True"),
        (("checks", 1, "passed"), "no", "check passed must be a boolean, not 'no'"),
        (("checks", 1, "passed"), 1, "check passed must be a boolean, not 1"),
        (("checks", 1, "passed"), False, None),
        (("checks", 1, "name"), 5, "check name must be a string, not 5"),
    ],
    ids=[
        "order-float", "order-boolean", "passed-string", "passed-integer", "passed-false",
        "name-integer",
    ],
)
def test_verify_reads_check_entries_typed_and_fails_a_stored_failure(
    tmp_path, path, value, expected
):
    tree, _ = mutate(json.loads(report("torsion-free")), ("replace", path, value))
    file = tmp_path / "report.json"
    file.write_text(json.dumps(tree))
    if expected is None:
        assert call("verify", str(file)) == (2, REJECTED, "")
    else:
        assert call("verify", str(file)) == (1, "", f"malformed report: {expected}\n")


@pytest.mark.parametrize(
    "name, path, message",
    [
        ("general", GAMMA_COEFFS, "gamma entry '1;1,1' has no key 'coeffs'"),
        ("torsion-free", ("checks", 1, "name"), "checks entry 1 has no key 'name'"),
        ("general", ("outputs",), "report has no key 'outputs'"),
        ("metric-2d", ("prescribed", "phi", "value", "jet"), "prescribed 'phi' has no key 'jet'"),
        (
            "metric-2d",
            ("outputs", "metric", "value", "comps", "1,1", "valid_order"),
            "comps entry '1,1' has no key 'valid_order'",
        ),
        (
            "statistical",
            ("free_data", "initial_slices", "g;1,2", "jet", "n"),
            "initial_slices slot 'g;1,2' jet has no key 'n'",
        ),
    ],
)
def test_verify_names_the_section_of_a_missing_key(tmp_path, name, path, message):
    tree, _ = mutate(json.loads(report(name)), ("drop", path, None))
    file = tmp_path / "report.json"
    file.write_text(json.dumps(tree))
    assert call("verify", str(file)) == (1, "", f"malformed report: {message}\n")
