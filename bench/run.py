"""lobmix benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lobmix checkout (the directory holding ``src/lobmix``).
The seed drives a generator (``inputs.py``) that writes the workload's input
files; the ``lobmix`` commands read only those files. One round runs the
workload's commands, each in a fresh child process (``child.py``), and rounds
repeat while another one fits in S seconds. Every command's outputs are checked, and
each round must reproduce the first round's outputs byte for byte. The first
round is a warm-up: it is checked but not timed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (medians over rounds); with ``--trace 1`` untraced and
traced rounds alternate and it carries the per-layer metrics. The lines
before it give every metric with its unit, spread and sample count, and the
machine the numbers came from. See README.md in this directory for the
workloads and the definition of each metric.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-synth", "train-cifar", "analyze-wide")
COMBOS = ("ib-ib", "ib-cb", "cb-cb")

END_TO_END = {
    "wall_s": "s",
    "examples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality": "ratio",
}
PER_LAYER = {
    "seeds.calls": "count",
    "seeds.calls_per_batch": "calls/batch",
    "seeds.self_s": "s",
    "samplers.calls": "count",
    "samplers.draws": "count",
    "samplers.self_s": "s",
    "mixer.calls": "count",
    "mixer.self_s": "s",
    "mixer.label_bytes": "B",
    "mixer.label_fill": "ratio",
    "occurrence.calls": "count",
    "occurrence.self_s": "s",
    "occurrence.add_calls": "count",
    "occurrence.tally_self_s": "s",
    "occurrence.analytic_s": "s",
    "occurrence.class_scans": "count",
    "trainer.calls": "count",
    "trainer.self_s": "s",
    "trainer.steps": "count",
    "trainer.step_self_s": "s",
    "trainer.evaluate_calls": "count",
    "trainer.evaluate_s": "s",
    "longtail.calls": "count",
    "longtail.self_s": "s",
    "longtail.load_s": "s",
    "longtail.source_bytes": "B",
    "longtail.feature_bytes": "B",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.missing": "count",
}
SELF_TIMES = [name for name in PER_LAYER if name.endswith(".self_s")]
# Sampling-theory tolerance for measured occurrence, in standard errors per
# class; with 3 x 1000 classes a false alarm has odds of about 1e-5.
OCCURRENCE_Z = 6.0
# Machine-speed reference: every reported time (wall_s, setup_s,
# examples_per_s and the per-layer times) is scaled by CALIBRATION_REF_S over
# the time child.calibrate() took in the same process around the command, so
# it reads as on a box where one calibration repetition takes 6 ms. The
# shared host's speed drifts by tens of percent over minutes, which no median
# over one run can remove; the times as measured are printed beside them.
CALIBRATION_REF_S = 0.006
DEADLINE_S = 170.0  # the whole run, generator included, stays under the 180 s limit
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class SetupError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def run_process(argv: list[str], log: Path, timeout: float) -> tuple[int, int]:
    """Run one child to completion; return (exit code, its own peak RSS in KiB).

    The peak comes from this child's rusage via ``os.wait4``, so it is not the
    running maximum over every child that ``RUSAGE_CHILDREN`` would give.
    """
    with log.open("w") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env={**os.environ, **CHILD_ENV})
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def tail(path: Path, lines: int = 5) -> str:
    return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:]) if path.exists() else ""


def digest(path: Path) -> dict[str, str]:
    """sha256 of every file of an output (a file or a directory)."""
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    return {str(p.relative_to(path.parent)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def check_train(op: dict, plan: dict) -> dict:
    out = Path(op["output"])
    evaluation = json.loads((out / "eval.json").read_text())
    done = (out / "DONE").read_text().strip()
    if done != evaluation["config_sha256"]:
        raise AssertionError(f"DONE {done[:12]} differs from eval.json config_sha256")
    with (out / "history.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != plan["epochs"] + 1:
        raise AssertionError(f"history.csv has {len(rows) - 1} rows for {plan['epochs']} epochs")
    acc = evaluation["balanced_accuracy"]
    if not 0.0 <= acc <= 1.0:
        raise AssertionError(f"balanced accuracy {acc} outside [0, 1]")
    return {"balanced_acc": acc}


def check_report(op: dict, plan: dict) -> dict:
    with Path(op["output"]).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if sorted(r["strategy"] for r in rows) != sorted(op["strategies"]) or any(r["runs"] != "1" for r in rows):
        raise AssertionError(f"aggregate rows {[(r['strategy'], r['runs']) for r in rows]}")
    return {}


def class_masses(kind: str, counts: list[int]) -> list[float]:
    total = sum(counts)
    return [1.0 / len(counts)] * len(counts) if kind == "cb" else [n / total for n in counts]


def check_analyze(op: dict, plan: dict) -> dict:
    """Analytic ratios against an independent formula, measured ones within
    OCCURRENCE_Z standard errors of them.

    A mixed example puts lam on its first class and 1 - lam on its second,
    lam ~ Beta(1, 1), so E[lam^2] = 1/3 and E[lam (1 - lam)] = 1/6.
    """
    counts, n = op["counts"], op["samples"]
    out = Path(op["output"])
    squared = []
    for combo in COMBOS:
        report = json.loads((out / f"occurrence_{combo.replace('-', '_')}.json").read_text())
        analytic, empirical = report["analytic"]["ratios"], report["empirical"]["ratios"]
        if report["empirical"]["sample_count"] != n:
            raise AssertionError(f"{combo}: {report['empirical']['sample_count']} samples, expected {n}")
        first, second = (class_masses(kind, counts) for kind in combo.split("-"))
        for k, (a, b) in enumerate(zip(first, second)):
            mean = (a + b) / 2
            if not math.isclose(analytic[k], mean, rel_tol=1e-9):
                raise AssertionError(f"{combo} class {k}: analytic {analytic[k]} != {mean}")
            var = (a + b) / 3 + a * b / 3 - mean * mean
            if abs(empirical[k] - mean) > OCCURRENCE_Z * math.sqrt(var / n):
                raise AssertionError(f"{combo} class {k}: measured {empirical[k]} vs analytic {mean}")
            squared.append((empirical[k] / mean - 1.0) ** 2)
    return {"rms_rel_error": math.sqrt(math.fsum(squared) / len(squared))}


CHECKS = {"train": check_train, "report": check_report, "analyze": check_analyze}


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


class Bench:
    def __init__(self, root: Path, work: Path, plan: dict, started: float) -> None:
        self.root, self.work, self.plan, self.started = root, work, plan, started
        # children run on the last CPU; this process keeps to the others
        cpus = sorted(os.sched_getaffinity(0))
        self.cpu = cpus[-1]
        os.sched_setaffinity(0, set(cpus[:-1]) or {self.cpu})
        self.first_digests: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def run_op(self, op: dict, traced: bool) -> dict | None:
        """Run one command in a fresh child and check its outputs; None if it failed."""
        self.attempted += 1
        remove(Path(op["output"]))
        tag = f"{self.attempted:04d}-{op['name']}"
        spec, result_path, log = (self.work / f"{tag}{ext}" for ext in (".spec.json", ".result.json", ".log"))
        spec.write_text(json.dumps(
            {"src": str(self.root / "src"), "argv": op["argv"], "setup": op["setup"], "trace": traced,
             "cpu": self.cpu}))
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        code, maxrss_kb = run_process(
            [sys.executable, str(HERE / "child.py"), str(spec), str(result_path)], log, timeout)
        try:
            if code != 0 or not result_path.exists():
                raise AssertionError(f"exit code {code}: {tail(log)}")
            result = json.loads(result_path.read_text())
            result["speed"] = CALIBRATION_REF_S / result["calibration_s"]
            result.update(CHECKS[op["kind"]](op, self.plan))
            digests = digest(Path(op["output"]))
            if self.first_digests.setdefault(op["name"], digests) != digests:
                raise AssertionError("outputs differ from the first round with this seed")
        except (AssertionError, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            self.failed += 1
            print(f"# FAILED {op['name']} ({'traced' if traced else 'untraced'}): {exc}", file=sys.stderr)
            return None
        result["maxrss_kb"] = maxrss_kb
        return result

    def run_round(self, traced: bool) -> dict:
        start = time.monotonic()
        results = [self.run_op(op, traced) for op in self.plan["ops"]]
        ok = all(r is not None for r in results)
        return {"traced": traced, "ok": ok, "results": results, "seconds": time.monotonic() - start}


def median_stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(plan: dict, rounds: list[dict]) -> tuple[dict, dict]:
    """End-to-end medians over untraced rounds, times at reference speed;
    plus the same times as measured and the speed factors, for the record."""
    untraced = [r for r in rounds if r["ok"] and not r["traced"]]
    if not untraced:
        raise SetupError("no untraced round completed without a failure")
    pairs = [(op, res) for r in untraced for op, res in zip(plan["ops"], r["results"])]
    samples = {"wall_s": [], "examples_per_s": [], "peak_rss_mb": [], "quality": [], "measured_wall_s": []}
    for r in untraced:
        ops = list(zip(plan["ops"], r["results"]))
        samples["wall_s"].append(sum(res["wall_s"] * res["speed"] for _, res in ops))
        samples["measured_wall_s"].append(sum(res["wall_s"] for _, res in ops))
        consuming = [(op, res) for op, res in ops if op["examples"]]
        samples["examples_per_s"].append(
            sum(op["examples"] for op, _ in consuming) / sum(res["wall_s"] * res["speed"] for _, res in consuming))
        samples["peak_rss_mb"].append(max(res["maxrss_kb"] for _, res in ops) / 1024.0)
        accs = [res["balanced_acc"] for _, res in ops if "balanced_acc" in res]
        samples["quality"].append(statistics.fmean(accs) if accs else 1.0 - ops[0][1]["rms_rel_error"])
    samples["setup_s"] = [res["setup_s"] * res["speed"] for op, res in pairs if op["setup"]]
    samples["measured_setup_s"] = [res["setup_s"] for op, res in pairs if op["setup"]]
    samples["speed"] = [res["speed"] for _, res in pairs]
    stats = {name: median_stats(values) for name, values in samples.items()}
    return {name: stats.pop(name) for name in END_TO_END}, stats


def per_layer(plan: dict, rounds: list[dict]) -> tuple[dict, list[str], float]:
    """Per-layer medians over traced rounds, plus missing names and the
    largest gap between traced wall time and the sum of layer self times."""
    traced = [r for r in rounds if r["ok"] and r["traced"]]
    untraced = [r for r in rounds if r["ok"] and not r["traced"]]
    if not traced or not untraced:
        raise SetupError("the traced run needs one clean traced and one clean untraced round")
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    missing: set[str] = set()
    gap = 0.0
    for r in traced:
        totals: dict[str, float] = {}
        for res in r["results"]:
            missing.update(res["trace"].pop("missing"))
            for key, value in res["trace"].items():
                totals[key] = totals.get(key, 0.0) + value * (res["speed"] if key.endswith("_s") else 1.0)
        wall = sum(res["wall_s"] * res["speed"] for res in r["results"])
        gap = max(gap, abs(wall - sum(totals[name] for name in SELF_TIMES)))
        batches = totals["trainer.steps"] or totals["mixer.batches"]
        totals["seeds.calls_per_batch"] = totals["seeds.calls"] / batches if batches else 0.0
        cells = totals["mixer.label_cells"]
        totals["mixer.label_fill"] = totals["mixer.label_nonzero"] / cells if cells else 0.0
        totals["trace.wall_s"] = wall
        for name in PER_LAYER:
            if name in totals:
                samples[name].append(totals[name])
    untraced_wall = statistics.median(sum(res["wall_s"] * res["speed"] for res in r["results"]) for r in untraced)
    stats = {name: median_stats(values) for name, values in samples.items() if values}
    stats["trace.overhead_s"] = median_stats([stats["trace.wall_s"]["median"] - untraced_wall])
    stats["trace.missing"] = median_stats([float(len(missing))])
    return stats, sorted(missing), gap


def machine_facts(root: Path, plan: dict) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        **plan["facts"],
        "nproc": nproc,
        "blas_threads_env": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "note": f"{nproc} cores shared with other tenants; one child process at a time, pinned to one CPU; "
                "times scaled to the reference calibration speed; "
                "no system-wide tracing or cache control is used",
    }


def generate(root: Path, work: Path, workload: str, seed: int) -> dict:
    log = work / "inputs.log"
    code, _ = run_process(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--src", str(root / "src"), "--out", str(work / "inputs")], log, DEADLINE_S / 2)
    if code != 0:
        raise SetupError(f"input generation failed: {tail(log)}")
    return json.loads((work / "inputs" / "plan.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "lobmix" / "__init__.py").is_file():
        print(f"error: {root} holds no src/lobmix; run from the root of a lobmix checkout", file=sys.stderr)
        return 2
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    remove(work)
    work.mkdir(parents=True)
    try:
        plan = generate(root, work, args.workload, args.seed)
        facts = machine_facts(root, plan)
        bench = Bench(root, work, plan, started)
        facts["child_cpu"] = bench.cpu
        measuring = time.monotonic()
        # The first round fills caches and is checked like any other, but not timed.
        warmup = bench.run_round(False)
        rounds: list[dict] = []
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(bench.run_round(traced))
            done = [warmup, *rounds]
            if time.monotonic() - started + 2 * max(r["seconds"] for r in done) > DEADLINE_S:
                break
            # stop when one more typical round would overrun the measuring time
            typical = statistics.median(r["seconds"] for r in done)
            if time.monotonic() - measuring + typical > args.seconds and len(rounds) >= 1 + args.trace:
                break
        if args.trace:
            metrics, missing, gap = per_layer(plan, rounds)
            units = PER_LAYER
        else:
            metrics, measured = end_to_end(plan, rounds)
            units = END_TO_END
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    print(f"# lobmix benchmark workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    print(f"# rounds={len(rounds)} traced={sum(r['traced'] for r in rounds)} "
          f"attempted={bench.attempted} failed={bench.failed} failed_frac={bench.failed / bench.attempted:.4g}")
    print("# round speed " + " ".join(
        f"{statistics.fmean(res['speed'] for res in r['results'] if res):.3f}" for r in [warmup, *rounds]))
    print("# round wall_s as measured (w: warm-up, t: traced) " + " ".join(
        f"{sum(res['wall_s'] for res in r['results'] if res):.3f}{tag}"
        for r, tag in [(warmup, "w"), *((r, "t" if r["traced"] else "") for r in rounds)]))
    for name, s in metrics.items():
        print(f"{name:<26} {s['median']:>14.6g} {units[name]:<12} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    if not args.trace:
        for name, s in measured.items():
            print(f"# {name:<24} {s['median']:>14.6g} {'' if name == 'speed' else 's':<12} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    else:
        print(f"# layer self times sum to the traced wall time within {gap:.3g} s")
        print(f"# missing wrapped names: {', '.join(missing) if missing else 'none'}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]} for name, s in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
