"""Benchmark of `jetgeom run` and `jetgeom verify`.

    python3 perfbench/run.py --workload ricci-n3 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; jetgeom is imported from ./src.
One process, no threads: a closed loop with one client that calls the public
CLI entry `jetgeom.cli.main(["run", scenario])` or `(["verify", report])`
in-process, checks every outcome, and repeats whole cycles of the workload's
ops (see workloads.py) until --seconds have passed.

Times are own wall times scaled to a fixed reference speed of the host
(clock.py): the shared host's speed swings too much for raw wall times to
resolve a regression. The raw medians are printed and kept in the result file.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced ops and prints the per-layer metrics; the traced ops run with the
public functions of each layer wrapped in span recorders (tracing.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A result file and, when traced, the spans go to .bench_out/.
Exit code 0 when every op had its expected outcome, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from clock import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7


def require_sources():
    if not (SRC / "jetgeom" / "__init__.py").is_file():
        raise SystemExit(f"no jetgeom sources under {SRC}")


def import_jetgeom():
    """A fresh import of jetgeom from ROOT/src (earlier imports are dropped,
    so each call pays what a new process pays)."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "jetgeom" or m.startswith("jetgeom.")]:
        del sys.modules[name]
    import jetgeom
    import jetgeom.cli

    if Path(jetgeom.__file__).resolve().parent != SRC / "jetgeom":
        raise SystemExit(f"imported jetgeom from {jetgeom.__file__}, not from {SRC}")
    return jetgeom


def call_cli(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def load_expected() -> dict:
    return json.loads((DATA / "expected.json").read_text())


def stored_report(expected: dict, name: str) -> str:
    body = gzip.decompress((DATA / "reports" / f"{name}.json.gz").read_bytes())
    if hashlib.sha256(body).hexdigest() != expected[name]:
        raise SystemExit(f"stored report {name} does not match its SHA-256")
    return body.decode()


def touch_tables(jetgeom, spaces):
    """First use of each workspace through the public Jet API, so whatever
    index tables the kernel builds lazily are built here."""
    Jet = jetgeom.jets.Jet
    for n, cap in spaces:
        x = Jet.variable(1, n, cap)
        x * x
        for axis in range(1, n + 1):
            x.partial(axis)
        x.antiderivative_x1().restrict_x1().promote()


def write_inputs(workload, seed, expected, work: Path):
    """Generate the workload's cycle and write each op's input file.
    Returns [(op, input path, report path)]."""
    ops = workloads.cycle(workload, seed, lambda name: stored_report(expected, name))
    out = []
    for op in ops:
        path = work / f"{op.name}.json"
        if op.kind == "run":
            report = work / f"{op.name}.report.json"
            path.write_text(json.dumps(dict(op.payload, output=str(report))))
        else:
            report = path
            path.write_text(op.payload)
        out.append((op, path, report))
    return out


def set_up(workload, seed, expected, work: Path, clock):
    """Import, first touch of the workload's tables, input files; repeated.
    Returns the live jetgeom, the ops, and the scaled set-up and table-touch
    seconds of every repeat."""
    spaces = workloads.workspaces(workload)
    setup_s, table_s = [], []
    for _ in range(SETUP_REPEATS):
        def once():
            jetgeom = import_jetgeom()
            start = perf_counter()
            touch_tables(jetgeom, spaces)
            tables = perf_counter() - start
            return jetgeom, write_inputs(workload, seed, expected, work), tables

        (jetgeom, ops, tables), wall, scaled = clock.time(once)
        setup_s.append(scaled)
        table_s.append(tables * scaled / wall)
    return jetgeom, ops, setup_s, table_s


def check(op, code, out, report: Path, expected) -> str | None:
    """None when the op had its expected outcome, else the reason."""
    try:
        printed = json.loads(out)
    except ValueError:
        printed = None
    if op.kind == "run":
        if code != 0:
            return f"exit {code}, expected 0"
        if not isinstance(printed, dict) or printed.get("status") != "ok":
            return f"stdout {out.strip()!r}, expected status ok"
        try:
            digest = hashlib.sha256(report.read_bytes()).hexdigest()
        except OSError as err:
            return f"report not readable: {err}"
        if digest != expected[op.name]:
            return f"report SHA-256 {digest} differs from the stored one"
        return None
    want_code = 0 if op.expect_ok else 2
    if code != want_code or printed != {"verified": op.expect_ok}:
        return f"exit {code} stdout {out.strip()!r}, expected exit {want_code} verified={op.expect_ok}"
    return None


def timed_op(clock, main, op, path) -> tuple[float, float, int, str, str]:
    """Own wall seconds, scaled seconds, exit code, stdout, stderr of one op."""
    argv = ["run" if op.kind == "run" else "verify", str(path)]

    def invoke():
        try:
            return call_cli(main, argv)
        except Exception:
            return -1, "", traceback.format_exc()

    gc.collect()
    (code, out, err), wall, scaled = clock.time(invoke)
    return wall, scaled, code, out, err


def measure(jetgeom, ops, seconds, expected, clock, tracer=None) -> dict:
    """Repeat whole cycles until `seconds` have passed. With a tracer, each
    op runs untraced and then traced. Returns, per kind ("plain", "traced"),
    the own wall and scaled seconds of each op, plus the report sizes of the
    traced ops, the failures and the attempted count."""
    main = jetgeom.cli.main
    kinds = [("plain", main)]
    if tracer:
        kinds.append(("traced", tracer.wrap("cli.op", main)))
    got = {kind: {"wall": [], "scaled": []} for kind, _ in kinds}
    sizes, failures = [], []
    attempted = 0
    start = perf_counter()
    while True:
        for op, path, report in ops:
            for kind, fn in kinds:
                if kind == "traced":
                    tracer.begin_op()
                    tracer.install()
                try:
                    wall, scaled, code, out, err = timed_op(clock, fn, op, path)
                finally:
                    if kind == "traced":
                        tracer.uninstall()
                attempted += 1
                reason = err if code == -1 else check(op, code, out, report, expected)
                if reason:
                    failures.append({"op": op.name, "reason": reason, "stderr": err})
                got[kind]["wall"].append(wall)
                got[kind]["scaled"].append(scaled)
                if kind == "traced":
                    sizes.append(report.stat().st_size if report.exists() else 0)
        if perf_counter() - start >= seconds:
            break
    return {"times": got, "sizes": sizes, "failures": failures, "attempted": attempted}


def layer_metrics(tracer, cycle_len, sizes, scale, table_s, product_pairs, overhead) -> dict:
    """Per-layer metrics. Counts are totals over the first traced cycle, so
    they depend only on the seed; times are scaled seconds per op over every
    traced op (`scale` holds each traced op's scaled over own wall time)."""
    first = range(cycle_len)
    calls, _, _ = tracer.summary(first, scale)
    _, total, own = tracer.summary(range(len(tracer.ops)), scale)
    per_op = len(tracer.ops)
    counts = tracer.counts[:cycle_len]
    values = {
        "multiindex.table_s": (table_s, "s"),
        "multiindex.product_pairs": (product_pairs, "count"),
        "jets.mul.calls": (calls["jets.mul"], "count"),
        "jets.mul.self_s": (own["jets.mul"] / per_op, "s"),
        "jets.mul.madds": (sum(c["madds"] for c in counts), "count"),
        "jets.reciprocal.calls": (calls["jets.reciprocal"], "count"),
        "jets.reciprocal.self_s": (own["jets.reciprocal"] / per_op, "s"),
        "jets.addsub.calls": (calls["jets.addsub"], "count"),
        "jets.addsub.self_s": (own["jets.addsub"] / per_op, "s"),
        "jets.partial.calls": (calls["jets.partial"], "count"),
        "jets.partial.self_s": (own["jets.partial"] / per_op, "s"),
        "jets.coeff.num_bits_max": (max(c["num_bits_max"] for c in counts), "bits"),
        "jets.coeff.den_bits_max": (max(c["den_bits_max"] for c in counts), "bits"),
        "ck.solve.calls": (calls["ck.solve"], "count"),
        "ck.solve.self_s": (own["ck.solve"] / per_op, "s"),
        "ck.rhs.evals": (calls["ck.rhs"], "count"),
        "ck.rhs.s": (total["ck.rhs"] / per_op, "s"),
        "geometry.ricci.calls": (calls["geometry.ricci"], "count"),
        "geometry.ricci.s": (total["geometry.ricci"] / per_op, "s"),
        "geometry.levi_civita.calls": (calls["geometry.levi_civita"], "count"),
        "geometry.levi_civita.s": (total["geometry.levi_civita"] / per_op, "s"),
        "geometry.metric_inverse.s": (total["geometry.metric_inverse"] / per_op, "s"),
        "geometry.codazzi.calls": (calls["geometry.codazzi"], "count"),
        "geometry.codazzi.s": (total["geometry.codazzi"] / per_op, "s"),
        "builders.build.s": (total["builders.build"] / per_op, "s"),
        "builders.build.self_s": (own["builders.build"] / per_op, "s"),
        "builders.det_solve.calls": (calls["builders.det_solve"], "count"),
        "builders.det_solve.s": (total["builders.det_solve"] / per_op, "s"),
        "builders.verify.s": (total["builders.verify"] / per_op, "s"),
        "serialize.dump.s": (total["serialize.dump"] / per_op, "s"),
        "serialize.load.s": (total["serialize.load"] / per_op, "s"),
        "serialize.report_bytes": (sum(sizes[:cycle_len]), "bytes"),
        "cli.op.s": (total["cli.op"] / per_op, "s"),
        "cli.self_s": (own["cli.op"] / per_op, "s"),
        "trace.overhead": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
    }
    print("provenance " + json.dumps(provenance), flush=True)

    expected = load_expected()
    work = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    clock = Clock()
    jetgeom, ops, setup_s, table_s = set_up(args.workload, args.seed, expected, work, clock)
    tracer = tracing.Tracer(jetgeom) if args.trace else None
    got = measure(jetgeom, ops, args.seconds, expected, clock, tracer)
    times, failures, attempted = got["times"], got["failures"], got["attempted"]
    plain = times["plain"]["scaled"]

    op_s_p50 = statistics.median(plain)
    if tracer:
        traced = times["traced"]
        product_pairs = sum(
            len(jetgeom.multiindex.product_rank(n, cap))
            for n, cap in workloads.workspaces(args.workload)
        )
        metrics = layer_metrics(
            tracer,
            len(ops),
            got["sizes"],
            [s / w for s, w in zip(traced["scaled"], traced["wall"])],
            statistics.median(table_s),
            product_pairs,
            statistics.median(traced["scaled"]) / op_s_p50,
        )
        tracer.write(OUT / f"{args.workload}-s{args.seed}.spans.jsonl.gz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_s_p50": {"value": op_s_p50, "unit": "s"},
            "ops_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }

    for failure in failures:
        print(f"FAILED {failure['op']}: {failure['reason']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    n_traced = len(times["traced"]["wall"]) if tracer else 0
    print(f"op samples {len(plain)} untraced, {n_traced} traced, cycle of {len(ops)} ops")
    print(f"unscaled own wall op_s_p50 {statistics.median(times['plain']['wall']):.6g} s")
    print(f"fail_share {len(failures)}/{attempted} = {len(failures) / attempted:.6g} ratio")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "provenance": provenance,
        "result": result,
        "fail_share": len(failures) / attempted,
        "ops": [op.name for op, _, _ in ops],
        "op_times": times,
        "setup_s": setup_s,
        "failures": failures,
    }
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
