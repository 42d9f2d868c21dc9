"""Record the golden stdout digests of every seed-independent job.

Usage (from the root of a checkout): ``python3 bench/record_golden.py``

Writes ``bench/golden.json``, a map from job id to the SHA-256 of the job's
stdout.  The command-line output must stay byte-identical across
refactors, so the digests are recorded once, at the commit that defines
the benchmark, and are not re-recorded by a change that claims a gain.
A job that exits non-zero or reports a failed check is not recorded.
"""

import json
import subprocess
import sys

import run
import workloads


def main():
    env = run.job_env()
    run.preflight(env)
    golden = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.build(workload, 0, str(run.ROOT)):
            if job.scale is not None:
                continue
            proc = subprocess.run([sys.executable, "-m", "klspoly.cli",
                                   *job.args], cwd=run.ROOT, env=env,
                                  capture_output=True,
                                  timeout=run.JOB_TIMEOUT_S)
            if proc.returncode != 0 or (
                    job.args[0] == "verify"
                    and not workloads.verify_passed(proc.stdout)):
                sys.exit(f"{job.id} failed; nothing recorded")
            golden[job.id] = workloads.digest(proc.stdout)
            print(job.id, golden[job.id][:12])
    with open(workloads.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
