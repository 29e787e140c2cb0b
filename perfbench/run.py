"""Layered benchmark for spinharm.

usage: python3 perfbench/run.py --workload {reports,roots,acceptance}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program under test is imported from
./src.  Each run builds its inputs from the seed, replays the workload's
first request in fresh interpreters, runs one untimed warm-up pass, then
runs whole passes in a closed loop (one request at a time, in process) for
S seconds.  Every output is checked after timing.  The last line printed is
one JSON object: with --trace 0 it holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
COLD_RUNS = 5          # fresh-interpreter replays per run (setup_s,
COLD_SECONDS = 5.0     # cli_cold_s), and more while they took less than this
IMPORT_RUNS = 5        # fresh interpreters per traced run for cli.import_s
MIN_PASSES = 2
CEILING_S = 150.0      # whole run; leaves room to report within 180 s

# Host speed drifts by up to 1.8x over seconds on a shared machine, for
# wall and CPU time alike.  Each timing is therefore scaled by the speed of
# a fixed pure-Python calibration loop run just before and just after it:
# reported seconds are seconds on a host where `calibrate()` takes
# REFERENCE_CALIBRATION_S (the median on a 2.1 GHz Xeon, Python 3.11).
REFERENCE_CALIBRATION_S = 0.0014

END_TO_END = {"pass_s": "s", "request_s.p50": "s", "request_s.p90": "s",
              "setup_s": "s", "cli_cold_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {"cli.import_s": "s", "trace.pass_s": "s",
                 "trace.untraced_pass_s": "s", "trace.overhead": "ratio"}


def _calibration_work():
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
    s = 0
    for k in range(6000):
        s += k * k % 7
    return acc, s


def calibrate():
    """Seconds for the calibration loop at the current host speed."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


def to_reference(wall, cal_before, cal_after):
    return wall * REFERENCE_CALIBRATION_S / ((cal_before + cal_after) / 2)


class RunCeiling(BaseException):
    """Raised by the alarm when the run reaches its ceiling.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it."""


def _on_alarm(signum, frame):
    raise RunCeiling()


class Tally:
    """Attempted and failed requests, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, kind, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{kind}: {error}")


class Sample:
    """One finished request: wall seconds, reference seconds, output."""

    __slots__ = ("req", "wall", "ref", "out")

    def __init__(self, req, wall, ref, out):
        self.req = req
        self.wall = wall
        self.ref = ref
        self.out = out


class Bench:
    def __init__(self, root, workload, seed, seconds, workdir):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.seconds = seconds
        self.deadline = time.monotonic() + CEILING_S
        self.tally = Tally()
        self.stopped = False      # set when the ceiling cut the run short
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.samples = []         # every in-process request, in order

    # -- fresh interpreters -------------------------------------------------

    def cold(self, args):
        """`cold.py args` in a fresh interpreter: (reference seconds of the
        whole interpreter, completed process)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        cal = calibrate()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "cold.py")] + args,
                              cwd=self.root, env=self.env, timeout=timeout,
                              capture_output=True, text=True)
        wall = time.perf_counter() - start
        return to_reference(wall, cal, calibrate()), proc

    def cold_request(self, req):
        try:
            ref, proc = self.cold(req.cold)
        except subprocess.TimeoutExpired:
            self.tally.record(req.kind, "cold run unfinished at the ceiling")
            self.stopped = True
            return None
        if req.cold[0] == "cli":
            out = (proc.returncode, proc.stdout)
        elif proc.returncode == 0:
            out = [tuple(r) for r in json.loads(proc.stdout)]
        else:
            out = [("exit", proc.returncode)]
        self.tally.record(req.kind, req.check(out))
        return ref

    # -- in-process passes --------------------------------------------------

    def run_pass(self, requests):
        """Run one pass under the ceiling alarm.  Returns the pass time in
        reference seconds, or None when the ceiling cut the pass short."""
        remaining = self.deadline - time.monotonic()
        done = 0
        try:
            if remaining <= 0:
                raise RunCeiling()
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            cal = calibrate()
            total = 0.0
            for req in requests:
                start = time.perf_counter()
                try:
                    out = req.run()
                except Exception as exc:   # a crashing request is a failure
                    out = exc
                wall = time.perf_counter() - start
                cal_after = calibrate()
                ref = to_reference(wall, cal, cal_after)
                self.samples.append(Sample(req, wall, ref, out))
                total += ref
                cal = cal_after
                done += 1
        except RunCeiling:
            for req in requests[done:]:
                self.tally.record(req.kind, "unfinished at the run ceiling")
            self.stopped = True
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return total

    def loop(self, wl, first_index, seconds):
        """Whole passes until `seconds` of wall time have passed.  Returns
        the pass times, their samples and the next pass index."""
        passes, first_sample = [], len(self.samples)
        start, index = time.perf_counter(), first_index
        while not self.stopped and (
                len(passes) < MIN_PASSES
                or time.perf_counter() - start < seconds):
            total = self.run_pass(wl.requests(index))
            if total is not None:
                passes.append(total)
            index += 1
        return passes, self.samples[first_sample:], index

    def check_all(self):
        """Check every in-process output; runs after all timing."""
        for s in self.samples:
            if isinstance(s.out, Exception):
                error = f"{type(s.out).__name__}: {s.out}"
            else:
                try:
                    error = s.req.check(s.out)
                except Exception as exc:   # malformed output is a failure
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.tally.record(s.req.kind, error)

    # -- runs ---------------------------------------------------------------

    def run(self, trace):
        import workloads
        wl = workloads.Workload(self.workload, self.seed, self.workdir)
        first = wl.requests(0)[0]
        if trace:
            lines, metrics, units = self._traced(wl)
        else:
            lines, metrics, units = self._untraced(wl, first)
        lines.append(f"fail_ratio {self.tally.failed}/{self.tally.attempted}"
                     + ("  (run ceiling reached)" if self.stopped else ""))
        lines += [f"  FAILED {r}" for r in self.tally.reasons]
        result = {
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        return lines, result

    def _untraced(self, wl, first):
        self.run_pass(warm_up(wl))
        # each fresh-interpreter replay is paired with a warm in-process run
        # of the same request right after it, so that host drift between
        # the two largely cancels in setup_s
        pairs, start = [], time.perf_counter()
        while not self.stopped and (
                len(pairs) < COLD_RUNS
                or time.perf_counter() - start < COLD_SECONDS):
            cold = self.cold_request(first)
            warm = self.run_pass([first])
            if cold is not None and warm is not None:
                pairs.append((cold, warm))
        colds = [c for c, _ in pairs]
        passes, samples, _ = self.loop(wl, 1, self.seconds)
        self.check_all()
        times = [s.ref for s in samples]
        metrics = {
            "pass_s": _median(passes),
            "request_s.p50": _median(times),
            "request_s.p90": _quantile(times, 10, 8),
            "cli_cold_s": _median(colds),
            "setup_s": _median([c - w for c, w in pairs]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines = summary_lines(wl, passes, samples, pairs, first)
        return lines, metrics, END_TO_END

    def _traced(self, wl):
        import tracer
        imports = [self.cold(["import"])[1] for _ in range(IMPORT_RUNS)]
        for proc in imports:
            self.tally.record("import spinharm.cli",
                              None if proc.returncode == 0 else
                              f"exit code {proc.returncode}")
        self.run_pass(warm_up(wl))
        plain, _, index = self.loop(wl, 1, self.seconds / 2)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, _, _ = self.loop(wl, index, self.seconds / 2)
        finally:
            tr.uninstall()
        self.check_all()
        metrics = tr.metrics(max(len(traced), 1))
        metrics["cli.import_s"] = _median(
            [float(p.stdout) for p in imports if p.returncode == 0])
        metrics["trace.pass_s"] = _median(traced)
        metrics["trace.untraced_pass_s"] = _median(plain)
        metrics["trace.overhead"] = (metrics["trace.pass_s"]
                                     / metrics["trace.untraced_pass_s"] - 1.0)
        lines = trace_lines(tr, len(traced), metrics)
        return lines, metrics, dict(tracer.metric_units(), **TRACE_METRICS)


def warm_up(wl):
    """One request of each kind, run untimed before timing starts: it fills
    the program's lazy caches (SpinRep.build, endomorphism products)."""
    kinds = {}
    for req in wl.requests(0):
        kinds.setdefault(req.kind, req)
    return list(kinds.values())


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quantile(values, n, k):
    # inclusive: with few samples the exclusive method is the sample maximum
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=n, method="inclusive")[k]


def summary_lines(wl, passes, samples, pairs, first):
    repeated = wl.repeated_inputs()
    per_pass = len(wl.requests(0))
    rep_time = sum(s.ref for s in samples if tuple(s.req.cold) in repeated)
    all_time = sum(s.ref for s in samples) or float("nan")
    wall = sum(s.wall for s in samples)
    out = [f"workload {wl.name} seed {wl.seed}: {len(passes)} timed passes, "
           f"{len(samples)} timed requests (p90 has "
           f"{len(samples) // 10} samples beyond it)"]
    if len(passes) >= 2:
        q1, _, q3 = statistics.quantiles(passes, n=4, method="inclusive")
        out.append(f"  pass_s median {_median(passes):.4f} s "
                   f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(passes)})")
    out.append(f"  host speed: {wall:.2f} s of wall time read as "
               f"{all_time:.2f} reference seconds")
    out.append(f"  first request {first.kind!r}, fresh/warm: "
               + ", ".join(f"{c:.3f}/{w:.3f}" for c, w in pairs) + " s")
    out.append(f"  repeated inputs: {len(repeated)} of {per_pass} requests "
               f"per pass, {rep_time / all_time:.1%} of request time")
    return out


def trace_lines(tr, passes, metrics):
    total = sum(s for s, _ in tr.self_times()) or float("nan")
    out = [f"traced passes: {passes}; tracing overhead "
           f"{metrics['trace.overhead']:+.1%} (traced pass "
           f"{metrics['trace.pass_s']:.3f} s, untraced "
           f"{metrics['trace.untraced_pass_s']:.3f} s)",
           "largest self times per traced pass (wall seconds):"]
    for self_s, prefix in tr.self_times()[:12]:
        out.append(f"  {prefix:44s} {self_s / passes:9.4f} s "
                   f"{self_s / total:6.1%}")
    out += [f"  not found in this program: {p}" for p in tr.missing]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "spinharm" / "cli.py").is_file():
        print(f"error: no spinharm sources under {root / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # One CPU for the run and the interpreters it starts, so that each
    # calibration measures the CPU that the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(root, args.workload, args.seed, args.seconds, workdir)
    try:
        lines, result = bench.run(bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
