"""latred benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload
    python3 perfbench/run.py --record                     # rewrite expected.json

Run it from the root of a checkout; latred is imported from that
checkout's src/.  The loop starts operations until --seconds have passed.
Every output is checked exactly; a wrong output or an error counts as a
failed operation and the run goes on.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics.  A traced run is followed by an untraced replay of
the same operations, which gives trace_overhead_frac and must reproduce
every output digest.  The lines before it ("# ...") give the environment,
the workload's own named metrics and the problems found.  A traced run
writes its spans to .perfbench/ in the checkout.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_RUNS = 7


def import_latred():
    sys.path.insert(0, str(SRC))
    import latred
    import latred.cli  # imports every module of the package

    if Path(latred.__file__).resolve().parent != SRC / "latred":
        raise SystemExit("latred came from %s, not from %s" % (latred.__file__, SRC))
    return latred


def env_stamp(latred, seed):
    """Results are comparable only when backend and start method agree."""
    return {
        "python": platform.python_version(),
        "q_backend": latred.rationals.Q.__module__,
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def measure_setup(workload, seed):
    """Median over fresh processes of importing latred and building the
    workload's inputs."""
    times = []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
        cmd += ["--workload", workload, "--seed", str(seed)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class Record:
    """One operation: wall seconds, cost in reference-loop units, seconds
    per step, and its outputs (None when it failed)."""

    seconds: float = 0.0
    ref: float = 0.0
    steps: dict = field(default_factory=dict)
    outputs: dict = None


class Tally:
    def __init__(self):
        self.records = []
        self.digests = []
        self.problems = []
        self.failed = 0

    def good(self):
        return [r for r in self.records if r.outputs is not None]


class SpeedProbe:
    """Samples the host's speed while latred runs.

    A shared host can change speed by a third within seconds, far more
    than the bounds the benchmark must hold.  Every PERIOD seconds a SIGALRM
    handler interrupts whatever runs and times the reference loop (fixed
    exact rational and integer arithmetic, in workloads.py).  A step's cost
    is its time without the probes, divided by the mean reference time
    sampled during the step (or by the latest sample, for a step shorter
    than PERIOD).  The cost is in units of the reference loop, "ref": it
    moves when latred does more or less work, not when the host slows
    down.
    """

    PERIOD = 0.1

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = []
        self.spent = 0.0
        self.busy = False

    def sample(self, *_):
        if self.busy:
            return
        self.busy = True
        t = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t
        self.busy = False
        self.samples.append(dt)
        self.spent += dt
        if self.tracer:
            self.tracer.pause(dt)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def time(self, call):
        """(output or exception, seconds without probes, cost in ref)."""
        n, spent = len(self.samples), self.spent
        t = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # BudgetExceeded or a defect: the caller counts it
            out = exc
        dt = time.perf_counter() - t - (self.spent - spent)
        during = self.samples[n:] or self.samples[-1:]
        return out, dt, dt * len(during) / sum(during)


def run_ops(ops, tally, tracer=None):
    """Run each (index, Op) in turn.  An exception is a failed operation,
    not the end of the run."""
    with SpeedProbe(tracer) as probe:
        for i, op in ops:
            if tracer:
                tracer.begin_op(i)
            rec, outputs, problems = Record(), {}, []
            for label, call in op.steps:
                out, dt, ref = probe.time(call)
                rec.seconds += dt
                rec.ref += ref
                rec.steps[label] = dt
                if isinstance(out, Exception):
                    error = traceback.format_exception_only(out)[-1].strip()
                    problems.append("%s %s: %s" % (op.key, label, error))
                    break
                outputs[label] = out
            digests = None
            if not problems:
                try:
                    digests, problems = op.check(outputs)
                except Exception as exc:  # an output of an unexpected shape
                    problems = ["%s: check raised %r" % (op.key, exc)]
            rec.outputs = None if problems else outputs
            tally.records.append(rec)
            tally.digests.append(digests)
            tally.problems.extend(problems)
            tally.failed += bool(problems)
    return tally


def timed_stream(wl, seconds):
    """(i, op i) for i = 0, 1, ... until `seconds` have passed, in whole
    passes over the workload's inputs, so that every run measures the same
    mix."""
    start = time.perf_counter()
    i = 0
    while i % wl.pass_size or time.perf_counter() - start < seconds:
        yield i, wl.op(i)
        i += 1


def untraced_run(wl, seconds, setup_s):
    start = time.perf_counter()
    loop = run_ops(timed_stream(wl, seconds), Tally())
    wall = time.perf_counter() - start
    after = run_ops(enumerate(wl.final_ops()), Tally())
    attempted = len(loop.records) + len(after.records)
    failed = loop.failed + after.failed
    good = loop.good()
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ref.p50": (statistics.median(r.ref for r in loop.records), "ref"),
        "ops_per_kref": (1000 * len(good) / sum(r.ref for r in loop.records), "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    seconds_spent = sum(r.seconds for r in loop.records)
    named = {
        "wall_s": (wall, "s"),
        "failed_frac": (failed / attempted, "ratio"),
        "ops": (len(loop.records), "count"),
        "op_s.p50": (statistics.median(r.seconds for r in loop.records), "s"),
        "ops_per_s": (len(good) / seconds_spent, "1/s"),
        "ref_s": (seconds_spent / sum(r.ref for r in loop.records), "s"),
    }
    if good:
        named.update(wl.named_metrics(good))
    if getattr(wl, "parallel", None):
        named.update(worker_metrics(wl))
    return metrics, named, attempted, failed, loop.problems + after.problems


def worker_metrics(wl):
    """CPU time of the parallel scan's workers (RUSAGE_CHILDREN) and its
    share of the scan's wall time x workers; zero where no scan ran."""
    par = getattr(wl, "parallel", None)
    if not par:
        return {"worker_cpu_s": (0.0, "s"), "worker_busy_frac": (0.0, "ratio")}
    busy = par["worker_cpu_s"] / (par["wall_s"] * wl.workers)
    return {"worker_cpu_s": (par["worker_cpu_s"], "s"), "worker_busy_frac": (busy, "ratio")}


def traced_run(wl, latred, seconds, seed):
    tracer = Tracer()
    tracer.install(latred)
    try:
        traced = run_ops(timed_stream(wl, seconds), Tally(), tracer)
    finally:
        tracer.uninstall()
    after = run_ops(enumerate(wl.final_ops()), Tally())
    n = len(traced.records)
    replay = run_ops(((i, wl.op(i)) for i in range(n)), Tally())
    problems = traced.problems + after.problems + replay.problems
    failed = traced.failed + after.failed + replay.failed
    if traced.digests != replay.digests:
        problems.append("traced and untraced runs gave different outputs")
        failed += 1

    metrics = layer_metrics(tracer.spans, tracer.counters, n)
    for name, value in worker_metrics(wl).items():
        metrics["verification.appendix_scan." + name] = value
    overhead = sum(r.ref for r in traced.records) / sum(r.ref for r in replay.records) - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / ("spans-%s-seed%d.tsv.gz" % (wl.name, seed)))
    named = {"spans": (len(tracer.spans), "count"), "ops": (n, "count")}
    attempted = n + len(after.records) + len(replay.records)
    return metrics, named, attempted, failed, problems


def record(latred) -> int:
    """Run every distinct operation once, check it, and store the digests
    of its exact outputs in expected.json."""
    expected = workloads.Recording()
    tally = Tally()
    rm = workloads.RandomMinkowski(0, latred, expected)
    rm.greedy_sample = len(rm.pop)
    run_ops(((i, rm.op(i)) for i in range(len(rm.pop))), tally)
    run_ops(enumerate(rm.final_ops()), tally)
    for cls in (workloads.GluedCertify, workloads.Appendix42):
        wl = cls(0, latred, expected)
        run_ops([(0, wl.op(0))], tally)
        run_ops(enumerate(wl.final_ops()), tally)
    for p in tally.problems:
        print("problem: " + p)
    if tally.failed:
        return 1
    with open(workloads.EXPECTED_PATH, "w", encoding="ascii") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")
    print("recorded %d digests in %s" % (len(expected), workloads.EXPECTED_PATH))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; their outputs in turn."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        print("## " + name, flush=True)
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="latred benchmark")
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if args.record:
        return record(import_latred())
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; one of %s" % (args.workload, sorted(WORKLOADS)))
    if args.setup_only:
        t = time.perf_counter()
        WORKLOADS[args.workload](args.seed, import_latred())
        print(time.perf_counter() - t)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    latred = import_latred()
    wl = WORKLOADS[args.workload](args.seed, latred)
    print("# env " + json.dumps(env_stamp(latred, args.seed), sort_keys=True))
    if args.trace:
        result = traced_run(wl, latred, args.seconds, args.seed)
    else:
        result = untraced_run(wl, args.seconds, setup_s)
    metrics, named, attempted, failed, problems = result
    for name, (value, unit) in named.items():
        print("# %-28s %14.6g %s" % (name, value, unit))
    for p in problems[:20]:
        print("# problem: " + p)
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
