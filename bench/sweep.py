"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/sweep.py [--workloads W ...] [--seeds N] [--first-seed S]
                           [--seconds S] [--trace 0|1] [--out FILE]

Run from the root of a lobmix checkout. Each (workload, seed) is one
``run.py`` invocation, one after another. For every metric the summary gives
the median of the per-run values, their quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (q3 - q1) over
the median, the unit, and for end-to-end metrics the bound from
BENCHMARK.json with a mark when the spread exceeds a third of it. ``--out``
also writes every run's result line and machine line as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 200


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    record: dict = {"seconds": args.seconds, "trace": args.trace, "runs": []}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in metrics}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            machine = next((json.loads(line[len("# machine "):]) for line in lines
                            if line.startswith("# machine ")), None)
            record["runs"].append({"workload": workload, "seed": seed, "result": result, "machine": machine})
            attempted += result["attempted"]
            failed += result["failed"]
            ok = ok and result["correct"]
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.6g}" for name in metrics), flush=True)
        print(f"== {workload}: runs={len(values[next(iter(metrics))])} attempted={attempted} "
              f"failed={failed} failed_frac={failed / max(attempted, 1):.4g}")
        for name, m in metrics.items():
            vals = values[name]
            if len(vals) < 2:
                continue
            (q1, _, q3), med = statistics.quantiles(vals, n=4), statistics.median(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            mark = "" if bound is None else f" bound={bound} {'OK' if spread < bound / 3 else 'WIDE'}"
            print(f"   {name:<26} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:.4f} unit={m['unit']}{mark}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
