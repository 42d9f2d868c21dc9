"""The benchmark's jobs, run in this process, give its recorded answers.

Every job of every workload in ``bench/workloads.py`` is built into a
temporary directory and run through ``cli.main`` there, and the results go
through the benchmark's own answer check, ``workloads.failed_jobs``,
against ``bench/golden.json``: golden stdout digests, ``passed N/N`` on
every ``verify`` job, and the scaled z-kernel identity of ``solve-large``.
So a change of any benchmark answer fails here, not only in a benchmark
run.  The answers do not depend on the hash seed.  Nothing under
``bench/`` is written.
"""

import contextlib
import io

import pytest

from klspoly import cli

from conftest import bench_module


@pytest.fixture(scope="module")
def workloads():
    return bench_module("workloads")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


@pytest.mark.parametrize("workload", ["corpus", "solve-large", "geometry"])
def test_every_benchmark_job_gives_its_recorded_answer(workloads, workload,
                                                       tmp_path, monkeypatch):
    assert workload in workloads.WORKLOADS
    jobs = workloads.build(workload, 0, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    results = {job.id: _run(job.args) for job in jobs}
    assert workloads.failed_jobs(jobs, results, workloads.load_golden()) == []
