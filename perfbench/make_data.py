"""Regenerate the benchmark's stored data from the current program.

    python3 perfbench/make_data.py

Runs every pool scenario through `jetgeom run` and writes
  data/expected.json        SHA-256 of each canonical report, by scenario name
  data/reports/<name>.json.gz   the reports the verify-reports workload reads

The stored hashes pin byte-identical canonical reports: rerun this only when
a change to the report bytes is intended, and say so with the change.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run
import workloads

DATA = Path(__file__).resolve().parent / "data"


def main() -> int:
    cli_main = run.import_jetgeom().cli.main
    reports = DATA / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    keep = {workloads.scenario_name(*entry) for entry in workloads.verify_pool()}
    expected = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for entry in workloads.pool():
            name = workloads.scenario_name(*entry)
            sc = dict(workloads.scenario(*entry), output=str(Path(tmp) / f"{name}.report.json"))
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(sc))
            code, out, err = run.call_cli(cli_main, ["run", str(path)])
            if code != 0 or json.loads(out)["status"] != "ok":
                print(f"{name}: exit {code}: {out}{err}", file=sys.stderr)
                return 1
            body = Path(sc["output"]).read_bytes()
            expected[name] = hashlib.sha256(body).hexdigest()
            if name in keep:
                (reports / f"{name}.json.gz").write_bytes(gzip.compress(body, mtime=0))
            print(name, expected[name], flush=True)
    (DATA / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
