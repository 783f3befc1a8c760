"""Workload definitions: scenario pools, per-seed op cycles, negative controls.

Every input the program sees is generated here from a seed, as plain JSON.
This module does not import jetgeom, so the benchmark can time the import.

Each workload is a cycle of ops. A run repeats whole cycles, so every run of
a workload has the same mix of ops whatever its length, and the median op
time does not jump between the cost clusters of different op kinds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

RICCI_TAGS = ("general", "trace-free-torsion", "torsion-free")

# Data seeds whose reports have a SHA-256 in data/expected.json.
RUN_POOL = (1, 2, 3, 4, 5, 6)
# Data seeds whose reports are stored in data/reports/ for the verify workload.
VERIFY_POOL = {"ricci": (1, 2, 3), "statistical": (1, 2), "metric-2d": (1, 2, 3)}

# Shapes of the run workloads: (construction, n, D).
RICCI_N3 = 3, 6
STATISTICAL_N4 = 4, 4
METRIC2D_DEEP = 2, 12

# The reason each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("ricci-n3", "statistical-n4", "metric2d-deep", "verify-reports")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and its expected outcome.

    kind "run": `payload` is the scenario (its "output" is filled in at set
    up) and the report must hash to the stored SHA-256 of `name`.
    kind "verify": `payload` is the report JSON text; `expect_ok` says whether
    the report must verify (exit 0) or be rejected (exit 2).
    """

    kind: str
    name: str
    payload: object
    expect_ok: bool = True


def scenario_name(tag: str, n: int, cap: int, seed: int) -> str:
    return f"{tag}-n{n}-D{cap}-s{seed}"


def scenario(tag: str, n: int, cap: int, seed: int) -> dict:
    """The scenario JSON of one pool entry, without its output path."""
    sc = {"construction": tag, "n": n, "D": cap, "seed": seed, "mode": "direct"}
    if tag == "metric-2d":
        sc["prescribed"] = {"r11": "random", "r22": "random", "phi": "random", "psi": "random"}
    else:
        if tag in RICCI_TAGS:
            sc["prescribed"] = {"r": "random"}
        sc["free_data"] = "random"
    sc["random"] = {"degree": min(3, cap - 1), "coeff_bound": 2}
    return sc


def pool() -> list[tuple[str, int, int, int]]:
    """Every scenario whose report SHA-256 is stored with the benchmark."""
    out = [(tag, *RICCI_N3, s) for tag in RICCI_TAGS for s in RUN_POOL]
    out += [("statistical", *STATISTICAL_N4, s) for s in RUN_POOL]
    out += [("metric-2d", *METRIC2D_DEEP, s) for s in RUN_POOL]
    return out


def verify_pool() -> list[tuple[str, int, int, int]]:
    """Pool entries whose canonical reports are stored for the verify workload."""
    out = [(tag, *RICCI_N3, s) for tag in RICCI_TAGS for s in VERIFY_POOL["ricci"]]
    out += [("statistical", *STATISTICAL_N4, s) for s in VERIFY_POOL["statistical"]]
    out += [("metric-2d", *METRIC2D_DEEP, s) for s in VERIFY_POOL["metric-2d"]]
    return out


def workspaces(workload: str) -> list[tuple[int, int]]:
    """The (n, D) jet workspaces a workload's ops compute in."""
    return {
        "ricci-n3": [RICCI_N3],
        "statistical-n4": [STATISTICAL_N4],
        "metric2d-deep": [METRIC2D_DEEP],
        "verify-reports": [RICCI_N3, STATISTICAL_N4, METRIC2D_DEEP],
    }[workload]


def _run_op(tag: str, n: int, cap: int, seed: int) -> Op:
    return Op("run", scenario_name(tag, n, cap, seed), scenario(tag, n, cap, seed))


def cycle(workload: str, seed: int, stored_reports) -> list[Op]:
    """The ops of one cycle of `workload`, drawn from the pools by `seed`.

    `stored_reports(name)` returns the stored canonical report text of a
    verify-pool entry; it is only called for verify-reports.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ricci-n3":
        return [_run_op(tag, *RICCI_N3, rng.choice(RUN_POOL)) for tag in RICCI_TAGS]
    # Op cost moves by up to 10% with the random data, so a cycle holds
    # several inputs: two statistical ones (a whole pool would take 40 s), and
    # the whole metric-2d pool, in an order drawn from the seed.
    if workload == "statistical-n4":
        return [_run_op("statistical", *STATISTICAL_N4, s) for s in rng.sample(RUN_POOL, 2)]
    if workload == "metric2d-deep":
        return [_run_op("metric-2d", *METRIC2D_DEEP, s) for s in rng.sample(RUN_POOL, len(RUN_POOL))]
    if workload == "verify-reports":
        picks = [(tag, *RICCI_N3, rng.choice(VERIFY_POOL["ricci"])) for tag in RICCI_TAGS]
        picks.append(("statistical", *STATISTICAL_N4, rng.choice(VERIFY_POOL["statistical"])))
        picks.append(("metric-2d", *METRIC2D_DEEP, rng.choice(VERIFY_POOL["metric-2d"])))
        ops = []
        for entry in picks:
            name = scenario_name(*entry)
            text = stored_reports(name)
            ops.append(Op("verify", name, text, True))
            tampered, site = tamper(text, rng)
            ops.append(Op("verify", f"{name}-tampered-{site}", tampered, False))
        # Ricci reports are 6 of the 10 ops, so the median op is a Ricci verify.
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _bump(coeffs: dict, key: str):
    """Add 1 to one stored coefficient, keeping the canonical form."""
    num, den = (int(v) for v in coeffs.get(key, "0/1").split("/"))
    num += den
    if num == 0:
        del coeffs[key]
    else:
        coeffs[key] = f"{num}/{den}"


def tamper(report_text: str, rng: random.Random) -> tuple[str, str]:
    """Change one output coefficient of a canonical report.

    Connection reports (prescribed Ricci) and statistical reports: an
    unknown of the CK solve (both entries of it in a symmetric table) gets
    +1 either on its x2 coefficient, which the initial-slice check sees, or
    on its x1 coefficient, which moves the residual that the CK row of that
    unknown isolates (Ricci or Codazzi) at degree 0. Metric-2d reports: g11
    or g22 gets +1 on a degree-2 monomial, which moves the Gaussian
    curvature, hence the Ricci residual, at degree 0.
    Returns the canonical tampered text and a label of the changed site.
    """
    data = json.loads(report_text)
    n = data["n"]
    outputs = data["outputs"]
    if data["construction"] == "metric-2d":
        comp = rng.choice(["1,1", "2,2"])
        mono = rng.choice(["2 0", "0 2"])
        _bump(outputs["metric"]["value"]["comps"][comp]["coeffs"], mono)
        site = f"metric{comp}@{mono}"
    else:
        slot = rng.choice(sorted(data["free_data"]["initial_slices"]))
        head, lower = slot.split(";")
        kind = rng.choice(["slice", "residual"])
        axis = 1 if kind == "slice" else 0
        mono = " ".join("1" if k == axis else "0" for k in range(n))
        i, j = lower.split(",")
        # symmetric tables store the coefficient under both index orders
        if head == "g":
            table = outputs["metric"]["value"]["comps"]
            keys = {lower, f"{j},{i}"}
        else:
            conn = outputs["connection"]["value"]
            table = conn["gamma"]
            keys = {slot, f"{head};{j},{i}"} if conn["symmetric"] else {slot}
        for key in keys:
            _bump(table[key]["coeffs"], mono)
        site = f"{slot}@{mono}"
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    return text, site.replace(" ", "").replace(";", "_").replace(",", "")
