"""Run one command-line job with the package's public functions traced.

Usage: ``python3 bench/trace_job.py TRACE_FILE JOB_ID CLI_ARGS...``

Installs the wrappers of :mod:`tracer` before ``klspoly.cli.main`` runs,
runs the command exactly as ``python -m klspoly.cli CLI_ARGS...`` would,
and writes the recorded spans to TRACE_FILE when the command returns.
"""

import sys

import tracer


def main(argv):
    trace_file, job = argv[0], argv[1]
    import klspoly.cli  # imports every module to be wrapped
    rec = tracer.Recorder()
    absent = tracer.install(rec, *tracer.target_names())
    try:
        code = klspoly.cli.main(argv[2:])
    finally:
        rec.dump(trace_file, job, absent)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
