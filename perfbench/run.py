"""arrdiff benchmark: one seeded workload, driven by one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 38 --trace 0

The run builds the workload's jobs from the seed, then repeats passes over
the whole job list, one call at a time, while another pass fits in
``--seconds`` (at least one pass), and fills the time left with passes
over the jobs that still fit.  Answers are checked after the timed
passes.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every pass is traced, the metrics are the per-layer ones from
``tracing.py`` and the spans are written to ``.perfbench_out/``.  The exit
code is 0 only when every answer is right.

Times are normalised to a fixed CPU speed.  On the shared machine the
baseline was taken on, our process runs in a fast state and in states up
to 2.3 times slower, each lasting from seconds to minutes, so the raw
times of one run can all be slow.  While a run measures, a timer signal
every METER_INTERVAL seconds times a short fixed loop of tuple, dict and
big-integer work (``reference_loop``, ~0.2 ms, run once to warm the caches
and then timed three times with the garbage collector off, the fastest
run being the sample); a job's time is its raw time times the mean speed
those samples show around it, where speed 1 is the loop taking
REFERENCE_S.  The sampling costs about 4% of the run.  A job's time in
a run is the median of its normalised times over its calls.  The slow
states are not CPU steal (process CPU time grows as fast as wall time in
them), so CPU time would not remove them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 6  # extra set-ups in fresh interpreters, for the median

# Seconds the fastest of three warm reference_loop() runs takes in the
# fast state of the machine the baseline was recorded on (Intel Xeon,
# 2 vCPUs, Python 3.11.7).
REFERENCE_S = 0.000209
METER_INTERVAL = 0.02
# A span's speed is the mean of the samples from this many seconds before
# it to as many after: the states last seconds, and a short job would get
# only two or three noisy samples from its own span.
METER_WINDOW = 0.2

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_p90_s", "s"), ("peak_rss_mb", "MB")]


# two sparse "polynomials": (exponent tuple, big integer coefficient)
_LEFT, _RIGHT = ([((i % 5, i * 7 % 6, i * 11 % 4), (i * 7919) ** 3 % 10 ** 12)
                  for i in range(start, start + 24)] for start in (1, 25))


def reference_loop() -> float:
    """Seconds a fixed sparse product of tuple-keyed dict terms takes now.

    It does the kind of work arrdiff's polynomial products do (tuple keys,
    dict updates, big integers), because the slow states slow that work
    more than plain arithmetic on a few integers.
    """
    start = time.perf_counter()
    out = {}
    for a, c in _LEFT:
        for b, d in _RIGHT:
            key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            total = out.get(key, 0) + c * d
            if total % 7:
                out[key] = total
            else:
                out.pop(key, None)
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the CPU speed from a timer signal while in a ``with``."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []

    def _tick(self, signum, frame):
        # The loop runs once to warm the caches and then three times with
        # no garbage collection, and the fastest of the three is the
        # sample: neither the working set or heap of the program being
        # measured nor an interrupt during one run reads as a slow machine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_loop()
            took = min(reference_loop() for _ in range(3))
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter())
        self.speeds.append(REFERENCE_S / took)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_INTERVAL, METER_INTERVAL)
        return self

    def __exit__(self, *exc_info):
        try:
            # a last sample after whatever was timed just before
            time.sleep(2 * METER_INTERVAL)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: float, end: float) -> float:
        """Mean speed sampled from METER_WINDOW before start to
        METER_WINDOW after end (perf_counter seconds), or the next sample
        if none falls in there."""
        lo = bisect_left(self.times, start - METER_WINDOW)
        hi = bisect_right(self.times, end + METER_WINDOW)
        return statistics.fmean(self.speeds[lo:max(hi, lo + 1)])

    def normalise(self, start: float, end: float) -> float:
        """end - start at speed 1."""
        return (end - start) * self.speed(start, end)


def import_library():
    """Import arrdiff from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import arrdiff
    if Path(arrdiff.__file__).resolve().parent != SRC / "arrdiff":
        raise ImportError(f"arrdiff was imported from {arrdiff.__file__}, "
                          f"not from {SRC}")


def setup(workload: str, seed: int):
    """Import arrdiff and build the jobs; returns (jobs, normalised s)."""
    with SpeedMeter() as meter:
        start = time.perf_counter()
        import_library()
        import workloads
        jobs = workloads.build(workload, seed)
        end = time.perf_counter()
    return jobs, meter.normalise(start, end)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """The q-quantile by the inclusive method of statistics.quantiles."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run_passes(jobs, seconds: float, tracer=None):
    """Closed loop over the job list for ``seconds``.

    Whole passes run while another one fits (at least one).  Untraced, the
    time left is then filled with passes over the jobs that still fit,
    each judged by its time in the first pass: where a slow state leaves
    room for one or two whole passes, the short jobs still get several
    samples.  A traced run keeps to whole passes, whose per-layer counts
    must repeat.

    Returns the wall time of each whole pass, each job's normalised and
    raw time in each pass it ran in (``[job][sample]``), the results
    (``[pass]``, a dict by job index), the peak resident memory in MB up to
    the end of the first pass and the speed meter.
    """
    walls: list[float] = []
    spans: list[list[tuple[float, float]]] = [[] for _ in jobs]
    raw: list[dict] = []
    peak_rss_mb = None

    def call(index, job):
        if tracer is not None:
            tracer.job = (len(raw), index)
        job_start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a raising job is a failed job
            result = exc
        spans[index].append((job_start, time.perf_counter()))
        return result

    with SpeedMeter() as meter:
        start = time.perf_counter()
        deadline = start + seconds
        while not walls or (time.perf_counter()
                            + statistics.median(walls) <= deadline):
            if tracer is not None:
                tracer.start_pass()
            pass_start = time.perf_counter()
            raw.append({index: call(index, job)
                        for index, job in enumerate(jobs)})
            walls.append(time.perf_counter() - pass_start)
            if peak_rss_mb is None:
                # later passes also hold the stored results of earlier ones
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        first = [job[0][1] - job[0][0] for job in spans]
        while tracer is None:
            results = {}
            for index, job in enumerate(jobs):
                if time.perf_counter() + first[index] <= deadline:
                    results[index] = call(index, job)
            if not results:
                break
            raw.append(results)
    samples = [[meter.normalise(*span) for span in job] for job in spans]
    raw_times = [[end - begin for begin, end in job] for job in spans]
    return walls, samples, raw_times, raw, peak_rss_mb, meter


def check_answers(jobs, raw) -> list[str]:
    """Judge every job of every pass; returns one message per failure."""
    import checker
    failures = []
    for index, job in enumerate(jobs):
        first = None
        for number, results in enumerate(raw):
            if index not in results:
                continue
            result = results[index]
            try:
                if isinstance(result, Exception):
                    raise result
                answer = job.answer(result)
                if first is None:
                    job.check(answer)
                    first = answer
                elif answer != first:
                    raise checker.CheckError("answer differs from pass 0")
            except Exception as exc:
                failures.append(f"{job.name} (pass {number}): "
                                f"{type(exc).__name__}: {exc}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "certify", "batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print one set-up time and exit (setup_s is "
                             "the median of several)")
    args = parser.parse_args(argv)

    try:
        jobs, setup_s = setup(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        walls, samples, raw_times, raw, peak_rss_mb, meter = run_passes(
            jobs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = check_answers(jobs, raw)
    trace_faults: list[str] = []
    per_job = [statistics.median(times) for times in samples]
    raw_wall = sum(statistics.median(times) for times in raw_times)
    if args.trace:
        summary = tracer.summarize(len(walls), meter.speed)
        values = tracing.layer_metrics(summary, sum(per_job), raw_wall)
        units = dict(tracing.per_layer_metrics())
        trace_faults = [f"layer {name} recorded no call"
                     for name in tracing.REQUIRED[args.workload]
                     if not values[f"{name}.calls"]]
        if not tracing.counts_repeat(summary):
            trace_faults.append("per-layer counts differ between passes")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
    else:
        setups = [setup_s] + [probe_setup(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        values = {"setup_s": statistics.median(setups),
                  "wall_s": sum(per_job),
                  "job_p50_s": statistics.median(per_job),
                  "job_p90_s": quantile(per_job, 0.9),
                  "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        beyond = sum(t > values["job_p90_s"] for t in per_job)
        calls = [len(times) for times in samples]
        print(f"# {len(jobs)} jobs, each the median of {min(calls)} to "
              f"{max(calls)} calls ({len(walls)} whole passes); "
              f"{beyond} of them beyond p90; {len(setups)} set-ups, own "
              f"{setup_s:.5f} s; raw wall {raw_wall:.3f} s, "
              f"{raw_wall / values['wall_s']:.2f} times the normalised",
              file=sys.stderr)

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    for message in trace_faults:
        print(f"FAILED {message}", file=sys.stderr)
    for name, value in values.items():
        print(f"# {name} = {value} {units[name]}", file=sys.stderr)
    correct = not failures and not trace_faults
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(times) for times in samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
