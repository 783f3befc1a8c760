"""Pinned SHA-256 of canonical reports: one direct and one round_trip
scenario per construction (metric-2d has no round_trip mode), at small n
and D, plus statistical at n = 4, the smallest n with (i, j, k) algebraic
Codazzi rows; and of the `jetgeom census` output of every tag, which fixes
the order of the slot lists; and, per construction, of the outcomes of a
`run` sweep over both modes, D = 2..6 and two seeds, with inputs that break
two rules; and, per construction, of one report with every prescribed value
and free datum at its default policy and one with each explicit and off it.
A refactor of the equation generators, builders or admission
rules must leave every report byte, reason and verify outcome unchanged; an
intended change updates these hashes."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from jetgeom.builders import random_normalized_metric
from jetgeom.cli import main
from jetgeom.geometry import levi_civita
from jetgeom.serialize import connection_to_json

RICCI_TAGS = ("general", "trace-free-torsion", "torsion-free")

# (construction, n, D, mode) -> SHA-256 of the report `jetgeom run` writes
GOLDEN = {
    ("general", 2, 3, "direct"):
        "b6bf10c347e072989b06ef135f6cf98074d9fff63a9845f48380ff1e03e566b7",
    ("general", 2, 3, "round_trip"):
        "71a7a9204673fe7c7a94a3d4852ca33735f915f0fea0e13487a4f0007f66e3d5",
    ("trace-free-torsion", 3, 3, "direct"):
        "ac3e4a799f5b0c64b4c8ecfdeefd045b9adcadc38913f96455189263e0bb9435",
    ("trace-free-torsion", 3, 3, "round_trip"):
        "a973ac200c66f246ec1d5955aaa92289ab11c09f3b1c3cb6cc4f0327d33fe2d0",
    ("torsion-free", 3, 3, "direct"):
        "5fa4263a8ebc3f974f29ccd3cdee00f7231cef3d5cb3d4a89e4c423b3799cb26",
    ("torsion-free", 3, 3, "round_trip"):
        "aa52ade8b6c825d0ccbd98be79cea37c3c72f195b5ba472913c70d570a28cac0",
    ("statistical", 3, 3, "direct"):
        "41ff752db6a5856a22e5f27f8579c943f390c075ac0d0745b1fb97f455fa20ec",
    ("statistical", 3, 3, "round_trip"):
        "b80509bf0d317574e747decda01f6146357a0e61c551aa6c91e8c0f33a3e7bcd",
    ("statistical", 4, 3, "direct"):
        "9020e3122ae06711a754e91414d398cb44960cbd0bfb5fd5e10ae711bcbf538a",
    ("statistical", 4, 3, "round_trip"):
        "86d4e60210a5729a27ec41fe8e99f9ec3004a9a3630ed4e19b2769a686641b7e",
    ("statistical-2d", 2, 4, "direct"):
        "b04d023664ca4213dbb1900e097a66a57b3158f9c81b03173458f2303edd482e",
    ("statistical-2d", 2, 4, "round_trip"):
        "474425dfb22e2a3e660f664123199ac17e88eef6f6d72eff9800b8694b345c0d",
    ("trace-free-statistical-2d", 2, 4, "direct"):
        "db9c6f254a650bdf5041c90ff1ba306b94028142f9dd06ca8dba8e29bd33b895",
    ("trace-free-statistical-2d", 2, 4, "round_trip"):
        "23d31a7162eef789c1e902f9133f0c867cbf0a495fcd9d5c8ab22703faabd63a",
    ("metric-2d", 2, 5, "direct"):
        "067cae383a756611857ec641aedc3390ca71c6b6ae1d961607fe2d23dbaaa917",
}

# tag -> SHA-256 of the stdout of `jetgeom census <tag> <n>` for n = 2..6,
# concatenated; the last three tags have no census and print a rejection
CENSUS_GOLDEN = {
    "general": "3e181eabd774b852e06ccef5d18491d79bce866e66b83f3030389e17f00c8246",
    "trace-free-torsion": "30d4555445ef36440d7f56d1e536f17651f2a7c6b4d8b0b5cc42c858785ae775",
    "torsion-free": "68e260a35925a67539810586cab05e3cae902f6a1f5b8d95406840f22aedcf0a",
    "statistical": "3cfbef571f039b20198a73096e2eadd714aeedc0a41b3407199a0f58bb35dcf8",
    "statistical-2d": "69f57a93d8298d431905193a53bf94812d300a543dda8e4cc452b470b9b1eb18",
    "trace-free-statistical-2d":
        "69f57a93d8298d431905193a53bf94812d300a543dda8e4cc452b470b9b1eb18",
    "metric-2d": "69f57a93d8298d431905193a53bf94812d300a543dda8e4cc452b470b9b1eb18",
}


def scenario(tag: str, n: int, cap: int, mode: str) -> dict:
    sc = {"construction": tag, "n": n, "D": cap, "seed": 3, "mode": mode}
    if tag == "metric-2d":
        sc["prescribed"] = {"r11": "random", "r22": "random", "phi": "random", "psi": "random"}
    else:
        if tag in RICCI_TAGS:
            sc["prescribed"] = {"r": "random"}
        sc["free_data"] = "random"
    return sc


@pytest.mark.parametrize(
    "tag, n, cap, mode", list(GOLDEN), ids=[f"{t}-n{n}-D{d}-{m}" for t, n, d, m in GOLDEN]
)
def test_report_bytes_are_pinned(tmp_path, capsys, tag, n, cap, mode):
    out = tmp_path / "report.json"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**scenario(tag, n, cap, mode), "output": str(out)}))
    assert main(["run", str(path)]) == 0, capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(tag, n, cap, mode)]


@pytest.mark.parametrize("tag", list(CENSUS_GOLDEN))
def test_census_output_is_pinned(capsys, tag):
    out = ""
    for n in range(2, 7):
        main(["census", tag, str(n)])
        out += capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_GOLDEN[tag]


# ---------------------------------------------------------------------------
# a `run` sweep per construction: both modes (metric-2d has direct only),
# D = 2..6 (statistical to 5), seeds 1-2, random data, and the two-fault
# inputs below; for each scenario the hash takes `run`'s exit code and its
# status or reason, the report bytes, and `verify`'s exit codes at the
# written orders and at --order 0

SWEEP_N = {
    "general": 2,
    "trace-free-torsion": 3,
    "torsion-free": 2,
    "statistical": 3,
    "statistical-2d": 2,
    "trace-free-statistical-2d": 2,
    "metric-2d": 2,
}
SWEEP_RANDOM = {
    "metric-2d": ("r11", "r22", "phi", "psi"),
    "statistical-2d": ("g11", "init12", "init22"),
    "trace-free-statistical-2d": ("init12", "init22"),
}


def short_jet(n: int, coeffs: dict, valid_order: int = 3) -> dict:
    return {"n": n, "D": 4, "valid_order": valid_order, "coeffs": coeffs}


def asymmetric_connection() -> dict:
    gamma = {
        f"{k};{i},{j}": short_jet(2, {"0 0": "1/1"} if (k, i, j) == (1, 1, 2) else {}, 2)
        for k in (1, 2)
        for i in (1, 2)
        for j in (1, 2)
    }
    return {"n": 2, "symmetric": False, "gamma": gamma}


# each breaks two rules; the reason is that of the rule checked first
TWO_FAULTS = {
    "metric-2d": [
        # r11 degenerate and valid below D
        {"prescribed": {"r11": short_jet(2, {}), "r22": "random", "phi": "random"}},
        # phi vanishing at the origin and valid below D
        {"prescribed": {"phi": {"ambient_n": 2, "jet": short_jet(1, {})}}},
    ],
    # g11 off 1 at the origin and valid below D
    "statistical-2d": [{"prescribed": {"g11": short_jet(2, {"0 0": "2/1"})}}],
    # a connection neither symmetric nor valid to D - 1
    "trace-free-statistical-2d": [{"prescribed": {"connection": asymmetric_connection()}}],
    # r's antisymmetric part not closed, and r valid below D - 1
    "torsion-free": [
        {"n": 3, "prescribed": {"r": {"components": {"1,2": short_jet(3, {"0 0 1": "1/1"}, 2)}}}}
    ],
}

SWEEP_GOLDEN = {
    "general": "2a2ceb23842fd75fe9065f90264a67a5f155068855762f5b2d6b5bb6cd8e6b38",
    "trace-free-torsion": "741ffe2f0cff8319369c54d749b2ee5529afd603f1ca70e40a739597f78c2581",
    "torsion-free": "76f1a5aea78608d7f4b5e5547cfc3472eb056398d863496007e9e0a0b58fc2bd",
    "statistical": "8974ee63707afc9a9e234f830d2c5b563060431619a38d2f23cae58bf6b56109",
    "statistical-2d": "4ce3d80c740ad05678a7e301a464d812e3a3bdcf986bad234b760d4636abe6c1",
    "trace-free-statistical-2d":
        "9187b1c006b1f1a93682e0a4094af6a06ac2435f6ca67525883b5905d913e75b",
    "metric-2d": "f0c935eb6dbd1de6d317d94156d82403ece9a631f790bc1e9c5e0b7870d6562c",
}


def sweep(tag: str):
    top = 5 if tag == "statistical" else 6
    modes = ("direct",) if tag == "metric-2d" else ("direct", "round_trip")
    for mode in modes:
        for cap in range(2, top + 1):
            for seed in (1, 2):
                sc = {"construction": tag, "n": SWEEP_N[tag], "D": cap, "seed": seed}
                sc.update(mode=mode, free_data="random")
                if tag in RICCI_TAGS:
                    sc["prescribed"] = {"r": "random"}
                else:
                    sc["prescribed"] = {key: "random" for key in SWEEP_RANDOM.get(tag, ())}
                yield sc
    for fault in TWO_FAULTS.get(tag, ()):
        yield {"construction": tag, "n": SWEEP_N[tag], "D": 4, "seed": 1, **fault}


def call(*argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def outcome(folder, scenario: dict) -> bytes:
    output = folder / "report.json"
    output.unlink(missing_ok=True)
    path = folder / "scenario.json"
    path.write_text(json.dumps({**scenario, "output": str(output)}))
    code, out = call("run", str(path))
    status = json.loads(out) if out else {}
    line = f"{code} {status.get('reason', status.get('status'))}\n".encode()
    if not output.exists():
        return line
    verified = (call("verify", str(output))[0], call("verify", str(output), "--order", "0")[0])
    return line + output.read_bytes() + f"{verified}\n".encode()


@pytest.mark.parametrize("tag", list(SWEEP_N))
def test_run_sweep_is_pinned(tmp_path, tag):
    digest = hashlib.sha256()
    for scenario in sweep(tag):
        digest.update(outcome(tmp_path, scenario))
    assert digest.hexdigest() == SWEEP_GOLDEN[tag]


# ---------------------------------------------------------------------------
# the policies of each construction's prescribed values and free data: per
# construction, one direct `run` with no "prescribed" or "free_data" section,
# every value at its default, and one with every value explicit and off its
# default, so a change of a default or of the order of the draws shows

POLICY_N = {**SWEEP_N, "torsion-free": 3}
POLICY_D = {"statistical-2d": 4, "trace-free-statistical-2d": 4, "metric-2d": 4}


def levi_civita_connection(cap: int) -> dict:
    return connection_to_json(levi_civita(random_normalized_metric(5, 2, cap, 3, 2)))


def inline_slice(coeffs: dict, n: int, cap: int) -> dict:
    jet = {"n": n - 1, "D": cap, "valid_order": None, "coeffs": coeffs}
    return {"ambient_n": n, "jet": jet}


# census construction -> free-data slot overrides, off the "random" default
POLICY_SLOTS = {
    "general": {"1;1,1": "zero", "2;1,1": "one", "1;1,2": "jet", "2;2,2": "slice"},
    "trace-free-torsion": {"1;1,1": "zero", "2;2,2": "one", "3;1,2": "jet", "1;2,2": "slice"},
    "torsion-free": {
        "2;1,1": "zero", "3;2,2": "one", "2;1,3": "jet", "1;2,2": "slice", "phi": "random",
    },
    "statistical": {
        "g;1,1": "random", "g;1,2": "zero", "2;2,2": "one", "1;1,2": "jet", "g;2,2": "slice",
    },
}


def explicit_policies(tag: str, n: int, cap: int) -> dict:
    jet = {"n": n, "D": cap, "valid_order": None, "coeffs": {" ".join("1" * n): "1/2"}}
    # constant term 1, as the diagonal metric slots need
    sl = inline_slice({" ".join("0" * (n - 1)): "1/1", " ".join("1" * (n - 1)): "1/3"}, n, cap)
    if tag == "metric-2d":
        r22 = {**jet, "coeffs": {"0 0": "2/1", "1 1": "1/2"}}
        phi = inline_slice({"0": "3/1", "1": "-1/1"}, n, cap)
        return {"prescribed": {"r11": "one", "r22": r22, "phi": phi, "psi": "random"}}
    if tag == "statistical-2d":
        return {"prescribed": {
            "connection": levi_civita_connection(cap), "g11": "random", "init12": "one",
            "init22": sl,
        }}
    if tag == "trace-free-statistical-2d":
        return {"prescribed": {
            "connection": levi_civita_connection(cap), "init12": "random", "init22": "zero",
        }}
    inline = {"jet": jet, "slice": sl}
    slots = {slot: inline.get(p, p) for slot, p in POLICY_SLOTS[tag].items()}
    sc = {"free_data": {"default": "random", "slots": slots}}
    if tag in RICCI_TAGS:
        # symmetric, so its antisymmetric part is closed
        r = {"1,1": "random", "1,2": jet, "2,1": jet, "2,2": "one"}
        sc["prescribed"] = {"r": {"components": r}}
    return sc


# (construction, "default" or "explicit") -> SHA-256 of the report of `run`
POLICY_GOLDEN = {
    ("general", "default"):
        "25e7667827edc84d85726a6a47f3899fcfff2f707b890368db0d7c73b2776865",
    ("general", "explicit"):
        "8f22619db267914c0a2450386da1dfc11cf880743b689ae309543a98f2be3471",
    ("trace-free-torsion", "default"):
        "8bb7498c46671e68548e0f1a12ea3569389412de1438f09394df38cb25acd730",
    ("trace-free-torsion", "explicit"):
        "d6aa8fccd39535d92bbb9684ac9ffe3a31e412bf9cc78d1838c2cb87edcf9283",
    ("torsion-free", "default"):
        "068093b61c25235394ad1f80608134c983bd696dfe87be49e6d5afa82d6b828a",
    ("torsion-free", "explicit"):
        "923504cdbce7d135c630b32d4fbcddb59d64b9ca16b46a3dd329301b22154eb4",
    ("statistical", "default"):
        "494db07c242be8def3408653c5441513914820480bbf69c173896d4cf9af30b2",
    ("statistical", "explicit"):
        "08a168ef1637778fbf1d0f142ab10742007c3d5cb39d928dc7e8cc766672d1b5",
    ("statistical-2d", "default"):
        "61a5d4f64c7ac1e3eacf195e50a4166fa77607fcf5e28b1f854558a5189ffc96",
    ("statistical-2d", "explicit"):
        "abf5aebe6419c53ac850ab1ca233425092287923aa0ff2f0ca47491ba8483b8f",
    ("trace-free-statistical-2d", "default"):
        "20c2eeab85408c782275b5c90875517652d367357fc7ce1841803d1b42223232",
    ("trace-free-statistical-2d", "explicit"):
        "8a3000db87f385503090e0c207d77d8292898033b4d40fba02c4f20c36283b36",
    ("metric-2d", "default"):
        "c78b74a26800ac3c09bad5136ea4f85d52809c5ec8a2d49b508f3e1d75b9cdbb",
    ("metric-2d", "explicit"):
        "bc47ee6cc4cc873c088be90ccd292f507f506b58f64f401a0c67f802b51cfac6",
}


def policy_scenario(tag: str, policies: str) -> dict:
    n, cap = POLICY_N[tag], POLICY_D.get(tag, 3)
    sc = {"construction": tag, "n": n, "D": cap, "seed": 2}
    return {**sc, **explicit_policies(tag, n, cap)} if policies == "explicit" else sc


@pytest.mark.parametrize(
    "tag, policies", list(POLICY_GOLDEN), ids=[f"{t}-{p}" for t, p in POLICY_GOLDEN]
)
def test_policy_reports_are_pinned(tmp_path, capsys, tag, policies):
    out = tmp_path / "report.json"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**policy_scenario(tag, policies), "output": str(out)}))
    assert main(["run", str(path)]) == 0, capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POLICY_GOLDEN[(tag, policies)]
