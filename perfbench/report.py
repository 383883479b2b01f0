"""Run every workload with tracing off and on, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--out results.json]

Prints one line per metric, ``<workload> <metric> = <value> <unit>``, plus
each workload's output-check outcome, and optionally writes all results to
one JSON file.  The workloads run one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    results, status = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: benchmark exited {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith(("check missed", "note:", "env ")):
                    print(f"{workload} {line}")
            for name, m in result["metrics"].items():
                print(f"{workload} {name} = {m['value']!r} {m['unit']}")
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            status |= not result["correct"]
            results.append({"workload": workload, "trace": trace, "seed": args.seed, **result})
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
