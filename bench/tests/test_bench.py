"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest bench/tests -q``.
The last three tests start the command line on small inputs (a few
seconds in all).
"""

import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


# -- tracer ------------------------------------------------------------------

def test_self_time_of_nested_spans_with_counter_only_children(tmp_path):
    # outer span A [0, 10] holds: counter C [1, 2]; span B [3, 7] holding
    # counter C [4, 6], which holds counter D [4.5, 5]; counter C [8, 9].
    ticks = iter([0, 1, 2, 3, 4, 4.5, 5, 6, 7, 8, 9, 10])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    rec.names = ["A", "B", "C", "D"]
    a = rec.enter(0, True)
    c = rec.enter(2, False)
    rec.leave(c)
    b = rec.enter(1, True)
    c = rec.enter(2, False)
    d = rec.enter(3, False)
    rec.leave(d)
    rec.leave(c)
    rec.leave(b)
    c = rec.enter(2, False)
    rec.leave(c)
    rec.leave(a)
    rec.dump(tmp_path / "t", "job", [])

    calls, self_s, _ = tracer.summarize([tracer.load(tmp_path / "t")])
    assert calls == {"A": 1, "B": 1, "C": 3, "D": 1}
    assert self_s == {"A": 4.0, "B": 2.0, "C": 3.5, "D": 0.5}
    assert sum(self_s.values()) == 10.0


def _fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    a = types.ModuleType("fakepkg.a")
    exec("def f(x):\n    return x + 1\n"
         "class K:\n"
         "    def __mul__(self, other):\n        return 6\n"
         "    __rmul__ = __mul__\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.f = a.f
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b


def test_install_wraps_every_binding_and_reports_absent_names(monkeypatch):
    a, b = _fake_package(monkeypatch)
    original = a.f
    rec = tracer.Recorder()
    absent = tracer.install(rec, ["a.f", "a.missing", "gone.f", "a.K.nope"],
                            ["a.K.__mul__"], package="fakepkg")
    assert absent == ["a.missing", "gone.f", "a.K.nope"]
    assert a.f is b.f and a.f is not original
    assert a.K.__rmul__ is a.K.__mul__
    assert b.f(1) == 2 and a.K() * a.K() == 6 and 2 * a.K() == 6
    assert [rec.names[i] for i in rec.name] == ["a.f"]
    assert rec.counts[rec.names.index("a.K.__mul__")][0] == 2


def _traced_calls(tmp_path, tag, args):
    trace = tmp_path / f"{tag}.trace"
    proc = subprocess.run([sys.executable, run.TRACE_JOB, str(trace), tag,
                           *args], cwd=ROOT, env=run.job_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls, _self_s, derived = tracer.summarize([tracer.load(trace)])
    return proc.stdout, calls, derived


def test_traced_counts_repeat_and_output_is_unchanged(tmp_path):
    job = next(j for j in workloads.build("corpus", 0, str(tmp_path))
               if j.id == "corpus/composition")
    out1, calls1, derived1 = _traced_calls(tmp_path, "one", job.args)
    out2, calls2, derived2 = _traced_calls(tmp_path, "two", job.args)
    assert calls1 == calls2
    assert calls1["cli.main"] == 1 and calls1["polynomial.Poly.__mul__"] > 0
    assert derived1 == derived2 and not derived1["absent"]
    assert workloads.digest(out1) == workloads.load_golden()[job.id]


# -- answer checks -----------------------------------------------------------

def test_wrong_stdout_counts_as_failed():
    good = b"x: ok\npassed 2/2\n"
    golden = {"v": workloads.digest(good)}
    jobs = [Job("v", ("verify", "--suite", "s"))]
    assert workloads.failed_jobs(jobs, {"v": (0, good)}, golden) == []
    assert workloads.failed_jobs(jobs, {"v": (0, good + b"\n")},
                                 golden) == ["v"]
    assert workloads.failed_jobs(jobs, {"v": (1, good)}, golden) == ["v"]
    assert workloads.failed_jobs(jobs, {"v": (None, b"")}, golden) == ["v"]
    partial = b"x: fail\npassed 1/2\n"
    assert workloads.failed_jobs(jobs, {"v": (0, partial)},
                                 {"v": workloads.digest(partial)}) == ["v"]


def test_scaled_job_fails_with_its_reference_or_a_wrong_value():
    ref = b"0 1: -1,1\n0 2: 1,-2,1\n1 2: -1,1\n"
    scaled = b"0 1: 2,-2\n0 2: 4,-8,4\n1 2: 2,-2\n"
    rank = (0, 1, 2)
    jobs = [Job("s", ("kls",), scale=("r", Fraction(-2), rank)),
            Job("r", ("kls",))]
    golden = {"r": workloads.digest(ref)}
    results = {"r": (0, ref), "s": (0, scaled)}
    assert workloads.failed_jobs(jobs, results, golden) == []
    wrong = scaled.replace(b"4,-8,4", b"4,-8,5")
    assert workloads.failed_jobs(jobs, {"r": (0, ref), "s": (0, wrong)},
                                 golden) == ["s"]
    assert workloads.failed_jobs(jobs, {"r": (0, ref + b"0 0: 1\n"),
                                        "s": (0, scaled)},
                                 golden) == ["r", "s"]


# -- seeds -------------------------------------------------------------------

def _scalars(jobs):
    return {j.id: j.scale[1] for j in jobs if j.scale is not None}


def test_same_seed_same_jobs_other_seed_other_scalars(tmp_path):
    first = workloads.build("solve-large", 7, str(tmp_path))
    again = workloads.build("solve-large", 7, str(tmp_path))
    other = workloads.build("solve-large", 8, str(tmp_path))
    assert first == again
    assert {j.id for j in first} == {j.id for j in other}
    assert _scalars(first) != _scalars(other)
    assert all(c.denominator != 1 for c in _scalars(other).values())
    for workload in ("corpus", "geometry"):
        assert workloads.build(workload, 3, str(tmp_path)) == \
            workloads.build(workload, 3, str(tmp_path))


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_kernel_job_passes_the_answer_check(tmp_path, seed):
    jobs = [j for j in workloads.build("solve-large", seed, str(tmp_path))
            if j.id.startswith("solve-large/cross4/z")]
    results = {}
    for job in jobs:
        proc = subprocess.run([sys.executable, "-m", "klspoly.cli",
                               *job.args], cwd=tmp_path, env=run.job_env(),
                              capture_output=True, timeout=120)
        results[job.id] = (proc.returncode, proc.stdout)
    golden = workloads.load_golden()
    assert workloads.failed_jobs(jobs, results, golden) == []
    scaled = next(j for j in jobs if j.scale is not None)
    ref_id, c, rank = scaled.scale
    assert not workloads.scaled_table_ok(results[ref_id][1],
                                         results[scaled.id][1], c + 1, rank)


def test_generated_posets_have_the_expected_sizes():
    sizes = {name: len(make()["labels"])
             for name, make in workloads.SOLVE_POSETS.items()}
    assert sizes == {"boolean6": 64, "cube4": 82, "cross4": 82,
                     "polygon12xboolean2": 104}
    assert len(inputs.comparable_pairs(inputs.cube_poset(4))) == 707 - 82
    assert [len(f()["cones"]) for f in inputs.B3_FANS.values()] == [27, 27]


# -- the driver --------------------------------------------------------------

def test_times_scale_by_a_power_of_the_probe_slowdown():
    nominal = run.PROBE_NOMINAL_S
    assert run.at_nominal_speed(3.0, [nominal]) == 3.0
    assert run.at_nominal_speed(3.0, [4 * nominal, 12 * nominal]) == \
        pytest.approx(3.0 / 8 ** run.PROBE_EXPONENT)


def test_benchmark_json_lists_every_per_layer_metric_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = run.layer_metrics({}, {}, {"carriers": 0, "hits": 0}, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, m["unit"]) for name, m in reported.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_driver_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "corpus", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
