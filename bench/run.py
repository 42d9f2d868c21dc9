"""Benchmark driver: run one workload of ``klspoly`` command-line jobs.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload corpus|solve-large|geometry \\
        --seed N --seconds S --trace 0|1

Closed loop, one client: each job is a fresh ``python -m klspoly.cli ARGS``
process, started when the previous one has exited, so every job pays
interpreter start and import as a user's command does, and no cache in the
package carries work from one job to the next.

``--trace 0`` times passes over the workload's job list until another pass
would overrun ``--seconds`` (at least one pass) and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced pass and reports
per-layer calls and self time from the traced one (see ``tracer.py``).
Every job's answer is checked in both modes; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are scaled to a nominal CPU speed by a probe that the
driver times every 0.1 s while a job runs, on the job's CPU (see
``at_nominal_speed``); raw seconds are printed above the result.

The package is taken from ``src/`` of the checkout; without it the driver
exits with status 2 and prints no result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CLI_FILE = ROOT / "src" / "klspoly" / "cli.py"
TRACE_DIR = ROOT / workloads.WORK_DIR / "trace"
TRACE_JOB = str(Path(__file__).resolve().parent / "trace_job.py")

#: A job that runs longer than this counts as failed.
JOB_TIMEOUT_S = 120
#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SPAWNS = 9
#: Speed probe: its mean seconds at the nominal speed every reported time
#: is scaled to (about its mean on a 2-CPU sandbox with Python 3.11), how
#: often it runs while a job runs, and the power of the probe slowdown that
#: a job's time is divided by (see ``at_nominal_speed``).
PROBE_NOMINAL_S = 0.003
PROBE_PERIOD_S = 0.1
PROBE_EXPONENT = 2 / 3


class BenchError(Exception):
    """The benchmark cannot run here (exit status 2, no result printed)."""


def job_env():
    """Environment of every job: the checkout's package, fixed hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def preflight(env):
    """Fail unless ``klspoly`` imports from this checkout's ``src``."""
    if not CLI_FILE.is_file():
        raise BenchError(f"no package source at {CLI_FILE.relative_to(ROOT)}")
    where = "import klspoly.cli; print(klspoly.cli.__file__)"
    proc = subprocess.run([sys.executable, "-c", where], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import klspoly.cli:\n{proc.stderr}")
    if Path(proc.stdout.strip()).resolve() != CLI_FILE.resolve():
        raise BenchError(f"klspoly.cli imports from {proc.stdout.strip()}, "
                         f"not from {CLI_FILE}")


_PROBE_POLY = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(6)]


def probe():
    """Seconds for a fixed sliver of work like the package's: products of
    small polynomials with ``Fraction`` coefficients."""
    start = time.perf_counter()
    for _ in range(16):
        out = [Fraction(0)] * 11
        for i, x in enumerate(_PROBE_POLY):
            for j, y in enumerate(_PROBE_POLY):
                out[i + j] += x * y
    return time.perf_counter() - start


def at_nominal_speed(seconds, probes):
    """``seconds`` scaled to the nominal CPU speed.

    The sandbox's CPU speed drifts by up to 1.8x within tens of seconds as
    other tenants come and go.  The probe slows down with it, about 1.5
    times as much in log terms as a job does, so the factor is
    PROBE_NOMINAL_S over the mean probe time, to the power PROBE_EXPONENT
    (measurements in README.md).
    """
    return seconds * (PROBE_NOMINAL_S / statistics.fmean(probes)) \
        ** PROBE_EXPONENT


def pin_to_one_cpu():
    """Keep this process and every job it starts on one CPU, so that the
    probe measures the CPU the jobs run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_probed(command, env):
    """Run ``command`` to completion, probing every PROBE_PERIOD_S while it
    runs and once after it exits.

    Returns (exit code, or None after a timeout; stdout; seconds; probes).
    The seconds leave out the probes run meanwhile on the job's CPU.
    """
    probes = []
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    while True:
        try:
            out, _err = proc.communicate(timeout=PROBE_PERIOD_S)
            code = proc.returncode
            break
        except subprocess.TimeoutExpired:
            if time.perf_counter() - start > JOB_TIMEOUT_S:
                proc.kill()
                proc.communicate()
                code, out = None, b""
                break
            probes.append(probe())
    seconds = time.perf_counter() - start - sum(probes)
    probes.append(probe())
    return code, out, seconds, probes


def run_all(commands, env):
    """Run ``commands`` one after another.

    Returns ``(code, stdout)`` per command, each command's seconds scaled
    by the probes taken just before, during and just after it, the raw
    seconds, and every probe taken.
    """
    before = [probe()]
    outputs, scaled, raw, probes = [], [], [], list(before)
    for command in commands:
        code, out, seconds, around = run_probed(command, env)
        outputs.append((code, out))
        raw.append(seconds)
        scaled.append(at_nominal_speed(seconds, before + around))
        probes.extend(around)
        before = around[-1:]
    return outputs, scaled, raw, probes


def measure_setup(env):
    """Median seconds for a fresh interpreter to import ``klspoly.cli``.

    A spawn is too short to carry probes of its own, so the median is
    scaled by every probe of the setup phase.
    """
    _outputs, _scaled, raw, probes = run_all(
        [[sys.executable, "-c", "import klspoly.cli"]] * SETUP_SPAWNS, env)
    median = statistics.median(raw)
    print(f"setup: {median:.4f} s raw")
    return at_nominal_speed(median, probes)


def run_pass(jobs, env, golden, trace_dir=None):
    """Run every job once, in order; return (scaled latencies, failed ids).

    With ``trace_dir``, each job runs under ``trace_job.py`` and leaves its
    trace file there.
    """
    commands = []
    for index, job in enumerate(jobs):
        if trace_dir is None:
            commands.append([sys.executable, "-m", "klspoly.cli", *job.args])
        else:
            commands.append([sys.executable, TRACE_JOB,
                             str(trace_dir / f"{index}.trace"), job.id,
                             *job.args])
    outputs, latencies, raw, _probes = run_all(commands, env)
    results = {job.id: out for job, out in zip(jobs, outputs)}
    failed = workloads.failed_jobs(jobs, results, golden)
    for job_id in failed:
        print(f"FAILED {job_id}: exit {results[job_id][0]}", file=sys.stderr)
    print(f"pass: {len(jobs)} jobs, {len(failed)} failed, {sum(raw):.3f} s "
          f"raw, {sum(latencies):.3f} s at nominal speed")
    return latencies, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs, env, golden, seconds):
    """Passes until the next would overrun ``seconds``; end-to-end metrics."""
    setup_s = measure_setup(env)
    walls, latencies, failed = [], [], []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        lat, bad = run_pass(jobs, env, golden)
        longest = max(longest, time.perf_counter() - start)
        walls.append(sum(lat))
        latencies.extend(lat)
        failed.extend(bad)
        if time.perf_counter() - begin + longest > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "job_p50_ms": metric(statistics.median(latencies) * 1000, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }
    return len(latencies), len(failed), metrics


def layer_metrics(calls, self_s, derived, overhead):
    """Per-layer metrics from merged traces, every named one present."""
    spanned, counted = tracer.target_names()
    metrics = {}
    for name in spanned + counted:
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    for module in tracer.MODULES:
        total = sum(v for k, v in self_s.items()
                    if k.startswith(module + "."))
        metrics[f"{module}.self_s"] = metric(total, "s")
    solves = calls.get(tracer.REPEAT_TARGET, 0)
    metrics[f"{tracer.REPEAT_TARGET}.repeat_ratio"] = metric(
        solves / derived["carriers"] if derived["carriers"] else 0.0, "ratio")
    tests = calls.get(tracer.HIT_TARGET, 0)
    metrics[f"{tracer.HIT_TARGET}.hit_ratio"] = metric(
        derived["hits"] / tests if tests else 0.0, "ratio")
    metrics["trace_overhead_s"] = metric(overhead, "s")
    return metrics


def traced(jobs, env, golden):
    """One untraced and one traced pass; per-layer metrics."""
    plain, failed = run_pass(jobs, env, golden)
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    TRACE_DIR.mkdir(parents=True)
    with_trace, failed_traced = run_pass(jobs, env, golden, TRACE_DIR)
    traces = [tracer.load(TRACE_DIR / f"{i}.trace") for i in range(len(jobs))
              if (TRACE_DIR / f"{i}.trace").is_file()]
    calls, self_s, derived = tracer.summarize(traces)
    if derived["absent"]:
        print("absent from the package: "
              + ", ".join(sorted(derived["absent"])))
    metrics = layer_metrics(calls, self_s, derived,
                            sum(with_trace) - sum(plain))
    return 2 * len(jobs), len(failed) + len(failed_traced), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = job_env()
    try:
        preflight(env)
        golden = workloads.load_golden()
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = workloads.build(args.workload, args.seed, str(ROOT))
    pin_to_one_cpu()
    if args.trace:
        attempted, failed, metrics = traced(jobs, env, golden)
    else:
        attempted, failed, metrics = end_to_end(jobs, env, golden,
                                                args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
