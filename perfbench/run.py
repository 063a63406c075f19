"""Benchmark of tunnelfill: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root. The library is imported from ./src, never
from an installed copy. Each workload is one process, one thread and one
caller in a closed loop: an op starts only when the previous one finished.
A run sets up SETUP_REPEATS times (import, input generation, warm-up) and
reports the median as setup_s, then measures whole passes over the inputs,
as many as fit in --seconds and at least one.

Times are reported at a fixed host speed. The host's speed drifts by up to
a factor of two over seconds to minutes, so every REFERENCE_EVERY seconds,
from a timer signal, a run times a fixed piece of the benchmark's own
pure-Python code (the reference) and scales each op's time by
NOMINAL_REFERENCE_S over the reference times measured around and during it.
A run's raw wall-clock figures are printed in its record line.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the run makes one untraced and one
traced pass and reports the per-layer metrics instead. The line before it
records the environment and the exact counters. The exit code is 1 when a
correctness gate fails and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_METRICS, TRACED, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
# The tail is the highest of these percentiles with at least TAIL_BEYOND
# samples, and at least TAIL_SHARE of a pass, above it in a single pass. The
# share matters for census and verify-docs, whose passes hold thousands of
# sub-millisecond ops: the host preempts a run for 1 ms or more about four
# times a second (measured with the collector off), which fills the top 0.1%
# of census's 0.2 ms ops, so its p99.9 would measure the host.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9)
TAIL_BEYOND = 10
TAIL_SHARE = 0.01
# Host speed. The reference is timed every REFERENCE_EVERY seconds of a pass
# or a set-up, even in the middle of an op, and best of REFERENCE_REPEATS so
# that a preemption during one timing does not count. NOMINAL_REFERENCE_S is
# what the reference takes on the nominal host, a mid-level reading of the
# 2-vCPU x86-64 VM the README's baselines come from; a time is reported as
# time * NOMINAL_REFERENCE_S / reference time.
REFERENCE_EVERY = 0.1
REFERENCE_REPEATS = 3
NOMINAL_REFERENCE_S = 0.0015
# The traced pass fails its gate when the summed self times and its wall
# time differ by more than this share.
ATTRIBUTION_TOLERANCE = 0.05


class LibraryMissing(Exception):
    pass


def load_library():
    """Import tunnelfill afresh from ./src and return its layer modules."""
    if not (SRC / "tunnelfill" / "__init__.py").is_file():
        raise LibraryMissing(f"no tunnelfill package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "tunnelfill" or n.startswith("tunnelfill.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("tunnelfill")
    if Path(package.__file__).resolve().parent != SRC / "tunnelfill":
        raise LibraryMissing(f"tunnelfill was imported from {package.__file__}, not {SRC}")
    return {layer: importlib.import_module(f"tunnelfill.{layer}") for layer in TRACED}


def reference_work() -> int:
    """Fixed pure-Python work of the kind the library does: dict updates,
    int arithmetic and branches. It never calls the library, and it makes
    no container but its one dict, so it never sets off the collector (a
    collection would time the op's heap, not the host)."""
    table: dict[int, int] = {}
    total = 0
    for i in range(6000):
        key = (i * 7919) & 2047
        table[key] = table.get(key, 0) + 1
        total += len(table) if key & 1 else -1
    return total


def reference_sample() -> float:
    """Seconds the reference work takes now, best of REFERENCE_REPEATS."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        start = perf_counter()
        reference_work()
        best = min(best, perf_counter() - start)
    return best


class HostSampler:
    """Reference samples taken while the benchmark runs.

    One sample is taken on entry, one every REFERENCE_EVERY seconds of wall
    time, and one on exit. With ``timer`` set, a SIGALRM handler takes the
    periodic samples; it runs between bytecodes of whatever op is in
    progress, so a long op is sampled while it runs. Without it, the caller
    calls ``between_ops`` and a sample is taken there when one is due.
    ``stolen`` is the time the samples took; callers time with ``clock``,
    which leaves it out. Each sample is (``position()`` when it was taken,
    reference seconds); positions never decrease.
    """

    def __init__(self, position=lambda: 0, timer: bool = True, reference=reference_sample):
        self.position, self.timer, self.reference = position, timer, reference
        self.samples: list[tuple[int, float]] = []
        self.stolen = 0.0
        self._sampling = False
        self._previous = None
        self._sampled_at = 0.0

    def sample(self) -> None:
        if self._sampling:
            return
        self._sampling = True
        start = perf_counter()
        try:
            self.samples.append((self.position(), self.reference()))
        finally:
            self._sampled_at = perf_counter()
            self.stolen += self._sampled_at - start
            self._sampling = False

    def clock(self) -> float:
        """perf_counter() less the time samples have taken so far. A sample
        can fire between any two bytecodes, so the reading is retried until
        none fired while it was taken."""
        while True:
            stolen = self.stolen
            now = perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def between_ops(self) -> None:
        if not self.timer and perf_counter() - self._sampled_at >= REFERENCE_EVERY:
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "HostSampler":
        self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY, REFERENCE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def scales(samples: list[tuple[int, float]], count: int) -> list[float]:
    """For positions 0..count-1, NOMINAL_REFERENCE_S over the mean of the
    samples around that position: those taken at it (just before op i or
    during it), or else the last one before it, and the first one after it."""
    positions = [position for position, _ in samples]
    seconds = [t for _, t in samples]
    result = []
    for i in range(count):
        first, after = bisect_left(positions, i), bisect_right(positions, i)
        if first == after:
            first -= 1
        last = min(after, len(samples) - 1)
        around = seconds[first:last + 1]
        result.append(NOMINAL_REFERENCE_S * len(around) / sum(around))
    return result


@dataclass
class Pass:
    """Raw op times of one pass and the reference samples taken during it,
    each tagged with the number of ops finished when it was taken; the
    finish step counts as op ``len(latencies)``."""

    latencies: list[float] = field(default_factory=list)
    finish_time: float = 0.0
    wall: float = 0.0
    samples: list[tuple[int, float]] = field(default_factory=list)
    failed: int = 0
    complaints: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        """Raw seconds inside ops plus the pass-level finish step."""
        return sum(self.latencies) + self.finish_time

    def nominal(self) -> tuple[list[float], float]:
        """Op times and busy time at the nominal host speed."""
        *op_scales, finish_scale = scales(self.samples, len(self.latencies) + 1)
        latencies = [t * k for t, k in zip(self.latencies, op_scales)]
        return latencies, sum(latencies) + self.finish_time * finish_scale


def run_pass(workload, op, check, finish, timer: bool = True, reference=reference_sample) -> Pass:
    """One closed-loop pass over the workload's inputs.

    Each op is timed alone; checks run between ops, outside op time, and the
    time of reference samples taken during an op is taken out of it.
    """
    result_pass = Pass()
    results = []
    latencies, complaints = result_pass.latencies, result_pass.complaints
    wall_start = perf_counter()
    with HostSampler(lambda: len(latencies), timer, reference) as host:
        for item in workload.items:
            host.between_ops()
            start = host.clock()
            try:
                result = op(item)
            except Exception as exc:  # a raising op is a failed op; keep measuring
                latencies.append(host.clock() - start)
                complaints.append(f"{item!r:.80}: raised {exc!r}")
                continue
            latencies.append(host.clock() - start)
            complaint = check(item, result)
            if complaint:
                complaints.append(complaint)
            if workload.keep_results:
                results.append(result)
        start = host.clock()
        value = finish(results)
        result_pass.finish_time = host.clock() - start
    result_pass.samples = host.samples
    result_pass.wall = perf_counter() - wall_start
    result_pass.failed = len(complaints)
    complaint = workload.check_finish(value)
    if complaint:
        # A wrong pass-level output (the census CSV) fails every op it covers.
        complaints.append(complaint)
        result_pass.failed = len(workload.items)
    return result_pass


def setup(name: str, seed: int, tiny: bool = False):
    """Import, generate inputs and warm up once; returns the workload, the
    warm-up complaints, the seconds it took, and those seconds at the
    nominal host speed (scaled by the reference samples taken during it)."""
    with HostSampler() as host:
        start = host.clock()
        lib = SimpleNamespace(**load_library())
        workload = WORKLOADS[name](lib, seed, tiny)
        complaints = []
        for item in workload.warm_up_items:
            complaint = workload.check(item, workload.op(item))
            if complaint:
                complaints.append(f"warm-up: {complaint}")
        seconds = host.clock() - start
    samples = [t for _, t in host.samples]
    return workload, complaints, seconds, seconds * NOMINAL_REFERENCE_S * len(samples) / sum(samples)


def tail_percentile(ops_per_pass: int) -> float:
    needed = max(TAIL_BEYOND, math.floor(TAIL_SHARE * ops_per_pass))
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if ops_per_pass - math.ceil(p * ops_per_pass / 100) >= needed:
            best = p
    return best


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seconds: float) -> tuple[list[Pass], float]:
    """Whole passes until the next one would likely end past ``seconds``,
    and the peak resident set after the first. Later passes only add the
    benchmark's own op times to it, so it is read before they run."""
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(workload, workload.op, workload.check, workload.finish))
        if len(passes) == 1:
            peak = peak_rss_mb()
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes, peak


def end_to_end(
    passes: list[tuple[list[float], float]], tail_p: float, setup_s: float, peak_mb: float
) -> dict[str, float]:
    """Metrics from each pass's (op seconds, busy seconds). The tail is taken
    per pass and its median reported, so that the same input sets it whether
    a run fits one pass or several."""
    latencies = [t for lat, _ in passes for t in lat]
    tails = [percentile(sorted(lat), tail_p) for lat, _ in passes]
    return {
        "ops_per_s": len(latencies) / sum(busy for _, busy in passes),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": statistics.median(tails) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }


def traced_pass(workload, layers: dict) -> tuple[Pass, Tracer, list[str]]:
    tracer = Tracer()
    tracer.install(layers)
    try:
        op = tracer.spanned("bench.op", workload.op)
        check = tracer.spanned("bench.check", workload.check)
        finish = tracer.spanned("bench.op", workload.finish)
        # The tracer's span stack must not be entered from a signal
        # handler, so the traced pass samples the host between ops only.
        reference = tracer.spanned("bench.reference", reference_sample)
        gc.collect()
        result = run_pass(workload, op, check, finish, timer=False, reference=reference)
    finally:
        unrestored = tracer.uninstall()
    return result, tracer, unrestored


def src_files() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def src_loc() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in src_files())


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    sha = hashlib.sha256()
    for path in src_files():
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "os": sys.platform,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": sha.hexdigest(),
        "src.loc": src_loc(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    complaints, raw_times, times = [], [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        # Only the last set-up's workload is kept; each set-up starts with
        # the previous one's garbage collected, outside its timing.
        workload = None
        gc.collect()
        workload, found, raw, nominal = setup(name, seed)
        complaints += found
        raw_times.append(raw)
        times.append(nominal)
    raw_setup_s, setup_s = statistics.median(raw_times), statistics.median(times)
    # The inputs live for the whole run; freezing them keeps the collector's
    # full passes over the benchmark's own objects out of the op times.
    gc.collect()
    gc.freeze()
    tail_p = tail_percentile(len(workload.items))

    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops_per_pass": len(workload.items),
        "tail_percentile": tail_p,
        "environment": environment(),
    }
    if trace:
        gc.collect()
        # Sampled the way the traced pass is, so the two walls compare.
        untraced = run_pass(workload, workload.op, workload.check, workload.finish, timer=False)
        traced, tracer, unrestored = traced_pass(workload, vars(workload.lib))
        passes = [untraced, traced]
        record["untraced_wall_s"], record["traced_wall_s"] = untraced.wall, traced.wall
        # Op time at the nominal host speed on both sides, so host drift
        # between the two passes does not read as tracing overhead.
        overhead = traced.nominal()[1] / untraced.nominal()[1]
        values = layer_metrics(tracer, traced.wall, overhead, record["environment"]["src.loc"])
        complaints += [f"binding not restored: {b}" for b in unrestored]
        if abs(values["trace.attributed_ratio"] - 1) > ATTRIBUTION_TOLERANCE:
            complaints.append(
                f"self times sum to {values['trace.attributed_ratio']:.4f} of the traced wall time"
            )
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in PER_LAYER_METRICS}
        record["counters"] = {
            n: values[n]
            for n in ("f2poly.snf_max_transform_deg", "oracle.subsets", "builder.retry_ratio")
        }
    else:
        passes, peak_mb = measure(workload, seconds)
        values = end_to_end([p.nominal() for p in passes], tail_p, setup_s, peak_mb)
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        samples = [t for p in passes for _, t in p.samples]
        record["host_speed"] = NOMINAL_REFERENCE_S / statistics.median(samples)
        record["reference_samples"] = len(samples)
        record["wall_clock"] = end_to_end([(p.latencies, p.busy) for p in passes], tail_p, raw_setup_s, peak_mb)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    complaints += [c for p in passes for c in p.complaints]
    record["passes"] = len(passes)
    record["error_rate"] = failed / attempted
    record["complaints"] = complaints[:20]
    print(json.dumps({"record": record}))
    correct = not complaints
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another, as a table."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 and not lines:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={record['error_rate']} "
              f"tail=p{record['tail_percentile']:g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<42} {entry['value']:>16.6g} {entry['unit']}")
        for complaint in record["complaints"]:
            print(f"  ! {complaint}")
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
