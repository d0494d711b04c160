"""One measured ``lobmix`` command in a fresh process.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory with the ``lobmix`` package), ``argv`` (the
CLI arguments), ``setup`` (the dataset to load before the command, or null),
``trace`` (whether to record layer spans) and ``cpu`` (the one CPU to run
on). The child times ``import lobmix`` plus that load as set-up, then times
``lobmix.cli.main`` on ``argv`` between two runs of :func:`calibrate`. It
writes both times, the mean calibration time, the command's return code
and, when traced, the span totals to RESULT. numpy is not imported before
the set-up clock starts.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time

CALIBRATION_REPS = 5


def load_dataset(setup: dict):
    """The workload's dataset through the package's public loaders."""
    import lobmix
    from lobmix import cli

    if setup["kind"] == "config":
        return cli.resolve_datasets(cli.load_config(setup["path"]))
    manifest = lobmix.DatasetManifest.load(setup["path"])
    import numpy as np

    labels = np.repeat(np.arange(len(manifest.counts)), manifest.counts)
    return manifest, lobmix.ClassIndex.from_labels(labels, len(manifest.counts))


def calibrate() -> float:
    """Median time of a fixed reference computation in this process.

    One repetition (about 6 ms) mixes the kinds of work the lobmix commands
    do: interpreter loops, many small numpy calls and sorting. It holds
    under 2 MB, so it does not raise the peak RSS of even the smallest
    command.
    """
    import numpy as np

    data = np.random.default_rng(0).permutation(1 << 16).astype(np.float64)
    head = data[:128].copy()
    times = []
    for _ in range(CALIBRATION_REPS):
        start = time.perf_counter()
        total = 0
        for k in range(50_000):
            total += k & 7
        for _ in range(1000):
            head += 0.0
        for _ in range(6):
            np.sort(data)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    spec = json.loads(open(sys.argv[1]).read())
    result_path = sys.argv[2]
    # one CPU for the whole command: migrating between the two vCPUs costs
    # up to 40% and varies from run to run
    os.sched_setaffinity(0, {spec["cpu"]})
    src = os.path.abspath(spec["src"])
    start = time.perf_counter()
    sys.path.insert(0, src)
    import lobmix
    import lobmix.cli

    if not os.path.abspath(lobmix.__file__).startswith(src + os.sep):
        print(f"lobmix imported from {lobmix.__file__}, not from {src}", file=sys.stderr)
        return 3
    data = load_dataset(spec["setup"]) if spec["setup"] else None
    setup_s = time.perf_counter() - start
    del data

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    before = calibrate()
    start = time.perf_counter()
    if tracer is None:
        rc = lobmix.cli.main(spec["argv"])
    else:
        rc = tracer.call("cli", "main", lobmix.cli.main, (spec["argv"],), {})
    wall_s = time.perf_counter() - start
    result = {
        "calibration_s": (before + calibrate()) / 2,
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "trace": tracer.summary() if tracer is not None else None,
    }
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
