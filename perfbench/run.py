"""nlspsa-ik benchmark: closed-loop CLI workloads, end-to-end metrics and,
with ``--trace 1``, per-layer spans.

Run from the root of a checkout; the package is imported from its ``src``:

    python3 perfbench/run.py --workload run-1.1 --seed 0 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/descriptions.json. Standard output lists every metric by name with
its unit; its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full report, with provenance,
is written to ``.perfbench_out/<workload>-trace<0|1>.json`` and a traced
run's spans to ``.perfbench_out/<workload>-spans.npz``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "nlspsa_ik" / "__init__.py").is_file():
        print(f"perfbench: no nlspsa_ik package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.measure import OUT, WORKLOADS, measure

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    report = measure(args.workload, args.seed, args.seconds, args.trace)
    path = OUT / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    result = report["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in report["problems"][:20]:
        print(f"problem: {problem}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
