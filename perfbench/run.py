#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload single-secure --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that reports the per-layer ledger.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit.  The full record, with provenance,
is written to ``.perfbench/results/``.

``--workload all`` runs the three workloads one after another, each in
a fresh process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("single-secure", "single-baseline", "figures-tiny")


def declared_units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    doc = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in doc["end_to_end"] + doc["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args) -> int:
    if args.workload == "figures-tiny":
        import figures as module
    else:
        import single as module
    outcome = module.run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    metrics = outcome["metrics"]
    units = declared_units()
    attempted, failed = outcome["attempted"], outcome["failed"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "samples": outcome["samples"],
        "problems": outcome["problems"],
        "provenance": common.provenance(),
    }
    results = common.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"provenance={json.dumps(record['provenance'], sort_keys=True)}")
    for problem in outcome["problems"]:
        print(f"# FAILED {problem}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} "
          f"({failed}/{attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process)."""
    rows, attempted, failed = [], 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=str(common.ROOT), capture_output=True, text=True,
            timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        rows.append((workload, result))
    for workload, result in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:16s} {name:28s} {metric['value']:>14.6g} "
                  f"{metric['unit']}")
        print(f"{workload:16s} {'error_rate':28s} "
              f"{result['failed'] / result['attempted']:>14.6g} "
              f"({result['failed']}/{result['attempted']})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "workloads": {
                          workload: result for workload, result in rows}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    common.clean_environment()
    try:
        common.require_tree()
    except common.TreeMissing as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
