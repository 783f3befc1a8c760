"""Pinned SHA-256 of canonical reports: one direct and one round_trip
scenario per construction (metric-2d has no round_trip mode), at small n
and D, plus statistical at n = 4, the smallest n with (i, j, k) algebraic
Codazzi rows; and of the `jetgeom census` output of every tag, which fixes
the order of the slot lists. A refactor of the equation generators or
builders must leave every report byte unchanged; an intended byte change
updates these hashes."""

import hashlib
import json

import pytest

from jetgeom.cli import main

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
