"""Scenario runner: `run <scenario.json>`, `census <tag> <n>`,
`verify <report.json> [--order k]`.

Exit codes: 0 success, 1 malformed input (usage errors included), 2
precondition rejection (with a machine-readable reason on stdout). Reports are canonical JSON, so a fixed
seed yields a byte-identical report file. A closed stdout (`jetgeom census
general 3 | head -2`) ends the command quietly with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import serialize
from .builders import (
    BuildReport,
    FreeData,
    _draw,
    _record,
    _require_node_bound,
    _require_workspace_bound,
    _slot_normal_value,
    _with_constant,
    build_metric_2d_prescribed_ricci,
    build_prescribed_ricci,
    build_statistical_2d,
    build_statistical_nd,
    build_trace_free_statistical_2d,
    census,
    connection_round_trip_data,
    random_connection,
    random_free_data,
    random_normalized_metric,
    random_prescribed_tensor,
    random_symmetric_connection,
    random_trace_free_connection,
    statistical_nd_round_trip_data,
    verify,
    verify_read_back,
    zero_free_data,
)
from .errors import JetError, RejectionError
from .geometry import Bilinear, levi_civita
from .jets import Jet, SliceJet


class ScenarioError(ValueError):
    pass


# prescribed-Ricci tag -> seeded connection of the round_trip mode
_RICCI_CONNECTIONS = {
    "general": random_connection,
    "trace-free-torsion": random_trace_free_connection,
    "torsion-free": random_symmetric_connection,
}


def _object(value, section: str) -> dict:
    """A scenario section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ScenarioError(
            f"section {section!r} must be an object, not {type(value).__name__}"
        )
    return value


def _integer(value, name: str) -> int:
    """A scenario field that must be a JSON integer (a boolean is not one)."""
    if type(value) is not int:
        raise ScenarioError(f"{name} must be an integer, not {json.dumps(value)}")
    return value


def _bounds(sc: dict, section: str, cap: int) -> tuple[int, int]:
    """Degree and coefficient bound of the random draws, from the "random"
    (direct mode) or "round_trip" section."""
    cfg = _object(sc.get(section, {}), section)
    defaults = {"degree": min(3, cap - 1), "coeff_bound": 2}
    return tuple(_integer(cfg.get(k, v), f"{section}.{k}") for k, v in defaults.items())


def _shape(sc: dict) -> tuple[int, int, int]:
    """The scenario's n, D >= 2 and seed, in either mode; an n outside the
    construction's dimension rule, a workspace over the pair bound and a
    statistical node over the node bound are rejected before any data is
    drawn."""
    n, cap = _integer(sc["n"], "n"), _integer(sc["D"], "D")
    if cap < 2:
        raise ScenarioError("need D >= 2")
    seed = _integer(sc.get("seed", 0), "seed")
    _record(sc["construction"], n)
    _require_workspace_bound(n, cap)
    _require_node_bound(sc["construction"], n, cap)
    return n, cap, seed


def _policy_jet(policy, n, cap, rng, degree, bound, constant=None) -> Jet:
    if policy == "zero":
        jet = Jet.zero(n, cap)
    elif policy == "one":
        jet = Jet.one(n, cap)
    elif policy == "random":
        jet = _draw(rng, n, cap, degree, bound)
    elif isinstance(policy, dict):
        jet = serialize.jet_from_json(policy)
        if (jet.n, jet.max_degree) != (n, cap):
            raise ScenarioError("inline jet has the wrong workspace")
        return jet
    else:
        raise ScenarioError(f"bad jet policy {policy!r}")
    if constant is not None:
        jet = _with_constant(jet, constant)
    return jet


def _policy_slice(policy, n, cap, rng, degree, bound, constant=None) -> SliceJet:
    if isinstance(policy, dict) and "jet" in policy:
        sl = serialize.slice_from_json(policy)
        if (sl.ambient_n, sl.max_degree) != (n, cap):
            raise ScenarioError("inline slice has the wrong workspace")
        return sl
    return SliceJet(_policy_jet(policy, n - 1, cap, rng, degree, bound, constant))


def _random_nonvanishing(policy, jet: Jet) -> Jet:
    """A random draw that vanishes at the origin gets constant term 1, so a
    random metric-2d scenario is nondegenerate. Explicit data is never
    rewritten: when it vanishes there, the builder rejects it."""
    if policy == "random" and jet.constant_term == 0:
        return _with_constant(jet, 1)
    return jet


def _prescribed_ricci(pres: dict, tag: str, n: int, cap: int, rng, degree, bound) -> Bilinear:
    policy = pres.get("r", "zero")
    if policy == "zero":
        return Bilinear.zero(n, cap)
    if policy == "random":
        return random_prescribed_tensor(tag, rng.randrange(2**32), n, cap, degree, bound)
    if isinstance(policy, dict) and "components" in policy:
        given = policy["components"]
        if not isinstance(given, dict):
            raise ScenarioError("prescribed components must be an object keyed 'i,j'")
        keys = {f"{i},{j}" for i in range(1, n + 1) for j in range(1, n + 1)}
        outside = sorted(set(given) - keys)
        if outside:
            raise ScenarioError(
                f"prescribed components {outside} are not 'i,j' with 1 <= i, j <= {n}"
            )
        comps = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                payload = given.get(f"{i},{j}")
                comps[(i, j)] = (
                    Jet.zero(n, cap)
                    if payload is None
                    else _policy_jet(payload, n, cap, rng, degree, bound)
                )
        return Bilinear(n, comps)
    raise ScenarioError(f"bad prescribed-tensor policy {policy!r}")


def _free_data(sc: dict, cen, n: int, cap: int, rng, degree, bound) -> FreeData:
    spec = sc.get("free_data", "zero")
    if isinstance(spec, str):
        spec = {"default": spec}
    default = _object(spec, "free_data").get("default", "zero")
    if default == "random":
        base = random_free_data(cen, rng.randrange(2**32), degree, bound, cap)
    elif default == "zero":
        base = zero_free_data(cen, cap)
    else:
        raise ScenarioError(f"bad free-data default {default!r}")
    free = dict(base.free_functions)
    slices = dict(base.initial_slices)
    gauge = base.gauge_function
    for slot, policy in _object(spec.get("slots") or {}, "free_data.slots").items():
        if slot == "phi":
            gauge = _policy_jet(policy, n, cap, rng, degree, bound)
        elif slot in free:
            normal = _slot_normal_value(slot)
            free[slot] = _policy_jet(policy, n, cap, rng, degree, bound, normal)
        elif slot in slices:
            normal = _slot_normal_value(slot)
            slices[slot] = _policy_slice(policy, n, cap, rng, degree, bound, normal)
        else:
            raise ScenarioError(f"slot {slot!r} is not in the census")
    return FreeData(free, slices, gauge)


def _run_direct(sc: dict) -> BuildReport:
    tag = sc["construction"]
    n, cap, seed = _shape(sc)
    rng = random.Random(seed)
    degree, bound = _bounds(sc, "random", cap)
    pres = _object(sc.get("prescribed") or {}, "prescribed")

    if tag in _RICCI_CONNECTIONS:
        cen = census(tag, n)
        r = _prescribed_ricci(pres, tag, n, cap, rng, degree, bound)
        fd = _free_data(sc, cen, n, cap, rng, degree, bound)
        return build_prescribed_ricci(tag, r, fd)

    if tag == "metric-2d":
        policy = {key: pres.get(key, "random") for key in ("r11", "r22", "phi")}
        r11 = _random_nonvanishing(
            policy["r11"], _policy_jet(policy["r11"], 2, cap, rng, degree, bound)
        )
        r22 = _random_nonvanishing(
            policy["r22"], _policy_jet(policy["r22"], 2, cap, rng, degree, bound)
        )
        r = Bilinear(
            2,
            {
                (1, 1): r11,
                (1, 2): Jet.zero(2, cap),
                (2, 1): Jet.zero(2, cap),
                (2, 2): r22,
            },
        )
        phi = _policy_slice(policy["phi"], 2, cap, rng, degree, bound)
        phi = SliceJet(_random_nonvanishing(policy["phi"], phi.jet))
        psi = _policy_slice(pres.get("psi", "zero"), 2, cap, rng, degree, bound)
        return build_metric_2d_prescribed_ricci(r, phi, psi)

    if tag == "statistical":
        cen = census(tag, n)
        fd = _free_data(sc, cen, n, cap, rng, degree, bound)
        return build_statistical_nd(n, fd)

    if tag == "statistical-2d":
        conn_policy = pres.get("connection", "random")
        if conn_policy == "random":
            conn = random_connection(rng.randrange(2**32), 2, cap, degree, bound)
        else:
            conn = serialize.connection_from_json(conn_policy)
        g11 = _policy_jet(pres.get("g11", "one"), 2, cap, rng, degree, bound, constant=1)
        init12 = _policy_slice(pres.get("init12", "zero"), 2, cap, rng, degree, bound, 0)
        init22 = _policy_slice(pres.get("init22", "one"), 2, cap, rng, degree, bound, 1)
        return build_statistical_2d(conn, g11, init12, init22)

    if tag == "trace-free-statistical-2d":
        conn_policy = pres.get("connection", "random-levi-civita")
        if conn_policy == "random-levi-civita":
            conn = levi_civita(
                random_normalized_metric(rng.randrange(2**32), 2, cap, degree, bound)
            )
        else:
            conn = serialize.connection_from_json(conn_policy)
        init12 = _policy_slice(pres.get("init12", "zero"), 2, cap, rng, degree, bound, 0)
        init22 = _policy_slice(pres.get("init22", "one"), 2, cap, rng, degree, bound, 1)
        return build_trace_free_statistical_2d(conn, init12, init22)

    raise ScenarioError(f"unknown construction {tag!r}")


def _run_round_trip(sc: dict) -> BuildReport:
    tag = sc["construction"]
    n, cap, seed = _shape(sc)
    degree, bound = _bounds(sc, "round_trip", cap)

    if tag in _RICCI_CONNECTIONS:
        conn = _RICCI_CONNECTIONS[tag](seed, n, cap, degree, bound)
        r, fd = connection_round_trip_data(tag, conn)
        return build_prescribed_ricci(tag, r, fd)

    g0 = random_normalized_metric(seed, n, cap, degree, bound)
    if tag == "statistical":
        _, fd = statistical_nd_round_trip_data(g0)
        return build_statistical_nd(n, fd)
    if tag == "statistical-2d":
        conn = levi_civita(g0)
        return build_statistical_2d(
            conn,
            g0.comp(1, 1),
            g0.comp(1, 2).restrict_x1(),
            g0.comp(2, 2).restrict_x1(),
        )
    if tag == "trace-free-statistical-2d":
        conn = levi_civita(g0)
        return build_trace_free_statistical_2d(
            conn, g0.comp(1, 2).restrict_x1(), g0.comp(2, 2).restrict_x1()
        )
    raise ScenarioError(f"round_trip mode does not support {tag!r}")


def _read_json(path: str):
    """The JSON document of a file; one nested too deep for the parser is
    malformed input (ValueError), where `json.loads` raises RecursionError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def cmd_run(args) -> int:
    try:
        sc = _read_json(args.scenario)
        if not isinstance(sc, dict) or "construction" not in sc:
            raise ScenarioError("scenario must be an object with a construction tag")
        mode = sc.get("mode", "direct")
        if mode not in ("direct", "round_trip"):
            raise ScenarioError(f"bad mode {mode!r}")
        report = _run_round_trip(sc) if mode == "round_trip" else _run_direct(sc)
        out = Path(sc.get("output", "report.json"))
        out.write_text(serialize.canonical_dumps(serialize.report_to_json(report)))
    except RejectionError as err:
        print(json.dumps({"status": "rejected", "reason": err.reason}))
        return 2
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError, JetError) as err:
        print(f"malformed scenario: {err}", file=sys.stderr)
        return 1
    # verify the written bytes, not the object they were written from: they
    # must read back as an admissible report that matches the checked build
    # value for value, which then passes the same checks, so none runs again
    try:
        ok = verify_read_back(report, serialize.report_from_json(json.loads(out.read_text())))
    except Exception:
        ok = False
    print(json.dumps({"status": "ok" if ok else "verification-failed", "report": str(out)}))
    return 0 if ok else 2


def cmd_census(args) -> int:
    try:
        cen = census(args.construction, args.n)
    except RejectionError as err:
        print(json.dumps({"status": "rejected", "reason": err.reason}))
        return 2
    rows = [
        ("free functions", cen.free_function_slots),
        ("initial slices", cen.initial_slice_slots),
        ("ck unknowns", cen.ck_unknowns),
        ("determined", cen.determined),
    ]
    print(f"construction: {cen.construction}")
    print(f"n: {cen.n}")
    for label, slots in rows:
        body = " ".join(slots) if slots else "-"
        print(f"{label} ({len(slots)}): {body}")
    return 0


def cmd_verify(args) -> int:
    try:
        report = serialize.report_from_json(_read_json(args.report))
        ok = verify(report, args.order)
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError, JetError) as err:
        print(f"malformed report: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"verified": ok}))
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jetgeom",
        description="Construct and verify jet-level geometric structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write a report")
    p_run.add_argument("scenario")
    p_run.set_defaults(func=cmd_run)

    p_census = sub.add_parser("census", help="print the free-data slots of a construction")
    p_census.add_argument("construction")
    p_census.add_argument("n", type=int)
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser(
        "verify", help="re-run the checks a report's construction requires"
    )
    p_verify.add_argument("report")
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 after printing a usage error; 2 is the rejection
        # code here, and a usage error is malformed input
        if exc.code == 2:
            return 1
        raise
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        return 1
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
