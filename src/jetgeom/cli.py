"""Scenario runner: `run <scenario.json>`, `census <tag> <n>`,
`verify <report.json> [--order k]`.

Exit codes: 0 success, 1 malformed input (usage errors included), 2
precondition rejection (with a machine-readable reason on stdout). Reports are canonical JSON, so a fixed
seed yields a byte-identical report file. A closed stdout (`jetgeom census
general 3 | head -2`) ends the command quietly with exit code 1.
"""

import argparse
import json
import random
import sys
from functools import cache
from pathlib import Path
from typing import NamedTuple

from . import builders, serialize
from .builders import (
    BuildReport, FreeData, _record, _require_node_bound, _require_workspace_bound,
    _slot_normal_value, _with_constant, census, verify, verify_read_back,
)
from .errors import JetError, RejectionError
from .geometry import Bilinear
from .jets import Jet, SliceJet


class ScenarioError(ValueError):
    pass


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
    """Degree (0..D) and coefficient bound (>= 0) of the random draws, from
    the "random" (direct mode) or "round_trip" section."""
    cfg = _object(sc.get(section, {}), section)
    degree = _integer(cfg.get("degree", min(3, cap - 1)), f"{section}.degree")
    bound = _integer(cfg.get("coeff_bound", 2), f"{section}.coeff_bound")
    if not 0 <= degree <= cap:
        raise ScenarioError(f"{section}.degree must be in 0..D = {cap}, not {degree}")
    if bound < 0:
        raise ScenarioError(f"{section}.coeff_bound must be >= 0, not {bound}")
    return degree, bound


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


class _DrawContext(NamedTuple):
    """What the draw rules of a direct `run` read: the scenario and its
    "prescribed" section, the construction, n and D, the seeded generator
    and the degree and coefficient bound of the random draws."""

    sc: dict
    pres: dict
    construction: str
    n: int
    cap: int
    rng: random.Random
    degree: int
    bound: int

    def policy(self, value):
        """The policy of a run value: its key's under "prescribed", or its
        default."""
        return self.pres.get(value.key, value.default)

    def seeded(self) -> tuple[int, int, int, int, int]:
        """A seed from the generator, then n, D, degree and bound: the
        arguments of a seeded table's draw."""
        return self.rng.randrange(2**32), self.n, self.cap, self.degree, self.bound


def _policy_jet(policy, ctx: _DrawContext, n: int, constant=None) -> Jet:
    """The jet in n variables that a policy gives: "zero", "one", "random"
    or an inline jet; all but an inline jet get the forced constant term."""
    if policy == "zero":
        jet = Jet.zero(n, ctx.cap)
    elif policy == "one":
        jet = Jet.one(n, ctx.cap)
    elif policy == "random":
        jet = builders._draw(ctx.rng, n, ctx.cap, ctx.degree, ctx.bound)
    elif isinstance(policy, dict):
        jet = serialize.jet_from_json(policy)
        if (jet.n, jet.max_degree) != (n, ctx.cap):
            raise ScenarioError("inline jet has the wrong workspace")
        return jet
    else:
        raise ScenarioError(f"bad jet policy {policy!r}")
    if constant is not None:
        jet = _with_constant(jet, constant)
    return jet


def _policy_slice(policy, ctx: _DrawContext, constant=None) -> SliceJet:
    if isinstance(policy, dict) and "jet" in policy:
        sl = serialize.slice_from_json(policy)
        if (sl.ambient_n, sl.max_degree) != (ctx.n, ctx.cap):
            raise ScenarioError("inline slice has the wrong workspace")
        return sl
    return SliceJet(_policy_jet(policy, ctx, ctx.n - 1, constant))


def _random_nonvanishing(policy, jet: Jet) -> Jet:
    """A random draw that vanishes at the origin gets constant term 1.
    Explicit data is never rewritten: when it vanishes there, the builder
    rejects it."""
    if policy == "random" and jet.constant_term == 0:
        return _with_constant(jet, 1)
    return jet


def _nonvanishing_slice(ctx: _DrawContext, value) -> SliceJet:
    policy = ctx.policy(value)
    return SliceJet(_random_nonvanishing(policy, _policy_slice(policy, ctx).jet))


def _diagonal(ctx: _DrawContext, value) -> Bilinear:
    """The diagonal tensor whose entries are the jets of the value's keys,
    each nonvanishing at the origin."""
    comps = Bilinear.zero(ctx.n, ctx.cap).comps
    for i, key in enumerate(value.key, 1):
        policy = ctx.pres.get(key, value.default)
        comps[(i, i)] = _random_nonvanishing(policy, _policy_jet(policy, ctx, ctx.n))
    return Bilinear(ctx.n, comps)


def _connection(ctx: _DrawContext, value):
    """An inline connection, or the default's seeded one: "random", or
    "random-levi-civita", the Levi-Civita connection of a random normalized
    metric."""
    policy = ctx.policy(value)
    if isinstance(policy, dict):
        return serialize.connection_from_json(policy)
    if policy != value.default:
        raise ScenarioError(f"bad connection policy {policy!r}")
    if policy == "random-levi-civita":
        return builders.levi_civita(builders.random_normalized_metric(*ctx.seeded()))
    return builders.random_connection(*ctx.seeded())


def _prescribed_tensor(ctx: _DrawContext, value) -> Bilinear:
    n, cap = ctx.n, ctx.cap
    policy = ctx.policy(value)
    if policy == "zero":
        return Bilinear.zero(n, cap)
    if policy == "random":
        return builders.random_prescribed_tensor(ctx.construction, *ctx.seeded())
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
                    Jet.zero(n, cap) if payload is None else _policy_jet(payload, ctx, n)
                )
        return Bilinear(n, comps)
    raise ScenarioError(f"bad prescribed-tensor policy {policy!r}")


def _free_data(ctx: _DrawContext, value) -> FreeData:
    spec = ctx.sc.get(value.key, value.default)
    if isinstance(spec, str):
        spec = {"default": spec}
    default = _object(spec, "free_data").get("default", value.default)
    cen = census(ctx.construction, ctx.n)
    if default == "random":
        seed = ctx.rng.randrange(2**32)
        base = builders.random_free_data(cen, seed, ctx.degree, ctx.bound, ctx.cap)
    elif default == "zero":
        base = builders.zero_free_data(cen, ctx.cap)
    else:
        raise ScenarioError(f"bad free-data default {default!r}")
    free = dict(base.free_functions)
    slices = dict(base.initial_slices)
    gauge = base.gauge_function
    for slot, policy in _object(spec.get("slots") or {}, "free_data.slots").items():
        if slot == "phi":
            gauge = _policy_jet(policy, ctx, ctx.n)
        elif slot in free:
            free[slot] = _policy_jet(policy, ctx, ctx.n, _slot_normal_value(slot))
        elif slot in slices:
            slices[slot] = _policy_slice(policy, ctx, _slot_normal_value(slot))
        else:
            raise ScenarioError(f"slot {slot!r} is not in the census")
    return FreeData(free, slices, gauge)


# draw rule of a record's run value (`builders._RunValue`) -> the function of
# (context, value) that makes the builder argument
_RULES = {
    "construction": lambda ctx, value: ctx.construction,
    "n": lambda ctx, value: ctx.n,
    "jet": lambda ctx, value: _policy_jet(ctx.policy(value), ctx, ctx.n, value.constant),
    "slice": lambda ctx, value: _policy_slice(ctx.policy(value), ctx, value.constant),
    "nonvanishing-slice": _nonvanishing_slice,
    "diagonal": _diagonal,
    "connection": _connection,
    "tensor": _prescribed_tensor,
    "census": _free_data,
}


def _run_direct(sc: dict) -> BuildReport:
    """The record's builder on its run values, drawn in the record's order."""
    tag = sc["construction"]
    n, cap, seed = _shape(sc)
    rng = random.Random(seed)
    degree, bound = _bounds(sc, "random", cap)
    pres = _object(sc.get("prescribed") or {}, "prescribed")
    rec = builders._CONSTRUCTIONS.get(tag)
    if rec is None:
        raise ScenarioError(f"unknown construction {tag!r}")
    ctx = _DrawContext(sc, pres, tag, n, cap, rng, degree, bound)
    return getattr(builders, rec.build)(*[_RULES[value.rule](ctx, value) for value in rec.run])


def _run_round_trip(sc: dict) -> BuildReport:
    """The record's builder on the round-trip data of its seeded structure."""
    tag = sc["construction"]
    n, cap, seed = _shape(sc)
    degree, bound = _bounds(sc, "round_trip", cap)
    rec = builders._CONSTRUCTIONS.get(tag)
    if rec is None or rec.round_trip is None:
        raise ScenarioError(f"round_trip mode does not support {tag!r}")
    draw, read = (getattr(builders, name) for name in rec.round_trip)
    return getattr(builders, rec.build)(*read(tag, draw(seed, n, cap, degree, bound)))


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
        out.write_text(serialize.report_text(report))
    except RejectionError as err:
        print(json.dumps({"status": "rejected", "reason": err.reason}))
        return 2
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError, JetError) as err:
        print(f"malformed scenario: {err}", file=sys.stderr)
        return 1
    # verify the written bytes, not the object they were written from: they
    # must read back as an admissible report that matches the checked build
    # value for value, which then passes the same checks, so none runs again
    # a failure says why on stderr, in one line
    try:
        ok = verify_read_back(report, serialize.report_from_json(json.loads(out.read_text())))
        why = "read-back differs from the build"
    except Exception as err:
        ok, why = False, f"read-back raised {type(err).__name__}: {err}"
    if not ok:
        print(" ".join(why.split()), file=sys.stderr)
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, so every call of `main` reads its arguments alike."""
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
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
