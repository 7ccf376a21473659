"""zigzagspec benchmark: end-to-end timings per workload, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, library versions, thread setting and round counts.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
over five fresh processes, spread over the run, of the time from process
start to the first timed operation (imports, potentials, seeded inputs).
The workload's op sequence (see workloads.py) repeats in rounds, closed loop
and single-threaded, until the next round would overrun ``--seconds`` (at
least two rounds; setup probes are not counted).  Each ``*_s`` metric sums,
over the ops of its stage in a round, each op's median time over the rounds.
Every time, setup probes included, is reported at reference speed: scaled
by the machine's speed as a fixed calibration kernel measures it during or
around the timed span (see calibration.py); the raw seconds are on the info
line.  An op fails when it raises ZigzagError or its output check fails;
failed ops count in ``failed``, make ``correct`` false and add their time to
no metric.

``--trace 1`` runs one round untraced and the same round traced, and reports
the per-layer metrics of tracer.py from the traced one, ``trace.overhead_s``
(traced minus untraced wall time) and whether the default-region beta:1.5
spectrum still fails.  The round is fixed, not timed, so its counts repeat
exactly for a given seed.  Spans are written to perfbench/out/.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread: set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
SETUP_PROBES = 5
MIN_ROUNDS = 2
CATEGORIES = ("spectrum_s", "operator_s", "simulate_s", "acf_s")


class Ops:
    """Runs and times one op at a time, with its output check untimed.

    Successful ops' times are kept per op: (category, label, occurrence in
    the round), so each op has one sample per round.  With a calibration
    Sampler, it runs through each round, and each op's net time and its time
    at reference speed are kept when the round ends."""

    def __init__(self, error_type, tracer=None, sampler=None):
        self.error_type = error_type
        self.tracer = tracer
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.samples = collections.defaultdict(list)
        self.scaled = collections.defaultdict(list)
        self._seen = collections.Counter()
        self._timed = []  # (key, start, end) of this round's successful ops

    def begin_round(self):
        self._seen.clear()
        if self.sampler is not None:
            self.sampler.start()

    def end_round(self):
        if self.sampler is None:
            return
        self.sampler.stop()
        for key, t0, t1 in self._timed:
            net, scaled = self.sampler.scale(t0, t1)
            self.samples[key].append(net)
            self.scaled[key].append(scaled)
        self._timed.clear()

    def run(self, category, label, fn, check):
        self.attempted += 1
        key = (category, label, self._seen[category, label])
        self._seen[category, label] += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except self.error_type as exc:
            self.failed += 1
            print(f"op failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        t1 = time.perf_counter()
        if self.tracer is None:
            problem = check(out)
        else:
            with self.tracer.paused():
                problem = check(out)
        if problem is not None:
            self.failed += 1
            print(f"check failed: {label}: {problem}", file=sys.stderr)
            return None
        if self.sampler is None:
            self.samples[key].append(t1 - t0)
        else:
            self._timed.append((key, t0, t1))
        return out


def category_seconds(samples, category):
    """Sum over the category's ops of each op's median time over rounds:
    a noise burst in one round moves one sample of one op, not a sum."""
    return sum(statistics.median(v) for (cat, _, _), v in samples.items() if cat == category)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=52.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args):
    """Wall time from spawning a fresh interpreter to its being ready to run
    the first op; the child reports the system-wide monotonic clock."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def timed_rounds(workload, args):
    """Rounds until the next would overrun args.seconds; setup probes run
    before the first round and after each one, so they spread over the run."""
    import zigzagspec as zz

    def probe():
        return calibration.around(lambda: setup_probe(args))

    ops = Ops(zz.ZigzagError, sampler=calibration.Sampler())
    setups = [probe()]
    walls = []
    while True:
        ops.begin_round()
        t0 = time.perf_counter()
        try:
            workload.round(ops, len(walls))
        finally:
            ops.end_round()
        walls.append(time.perf_counter() - t0)
        if len(setups) < SETUP_PROBES:
            setups.append(probe())
        spent = sum(walls)
        if len(walls) >= MIN_ROUNDS and spent + statistics.median(walls) > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    metrics = {"setup_s": statistics.median(s for _, s in setups)}
    metrics.update((cat, category_seconds(ops.scaled, cat)) for cat in CATEGORIES)
    for cat, value in metrics.items():
        if not value:
            print(f"no op in {cat} succeeded", file=sys.stderr)
    raw = {"setup_s": statistics.median(r for r, _ in setups)}
    raw.update((cat, category_seconds(ops.samples, cat)) for cat in CATEGORIES)
    samples = {f"{label} #{k}": v for (_, label, k), v in ops.samples.items()}
    info = {"rounds": len(walls), "round_s": walls, "raw_s": raw, "setup_s": setups, "op_s": samples}
    return ops, metrics, info


def traced_round(workload, name):
    import tracer
    import workloads
    import zigzagspec as zz

    probe_failures = workloads.default_region_probe()
    ops = Ops(zz.ZigzagError)
    ops.begin_round()
    t0 = time.perf_counter()
    workload.round(ops, 0)
    untraced = time.perf_counter() - t0

    tr = tracer.Tracer()
    tracer.install(tr)
    ops.tracer = tr
    tr.active = True
    try:
        ops.begin_round()
        t0 = time.perf_counter()
        workload.round(ops, 0)
        traced = time.perf_counter() - t0
    finally:
        tr.active = False
        tr.uninstall()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tr.write_spans(os.path.join(HERE, "out", f"trace-{name}.csv"))
    layers = tracer.layer_metrics(tr, traced - untraced, probe_failures)
    for hook in tr.missing:
        print(f"trace hook missing: {hook}; metrics built on it report -1", file=sys.stderr)
    info = {"untraced_round_s": untraced, "traced_round_s": traced, "spans": len(tr.starts), "missing": tr.missing}
    return ops, layers, info


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zigzagspec", "__init__.py")):
        print(f"error: no zigzagspec sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    if args.trace:
        ops, layers, info = traced_round(workload, args.workload)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        ops, timings, info = timed_rounds(workload, args)
        metrics = {name: {"value": v, "unit": "s"} for name, v in timings.items()}
    info.update(
        workload=args.workload,
        seed=args.seed,
        ops_failed_frac=ops.failed / ops.attempted,
        env=environment(),
    )
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
