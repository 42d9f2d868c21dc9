"""The benchmark's three workloads and the answer check for every job.

A job is one ``klspoly`` command line.  All paths in a job are relative to
the checkout root, where every job runs, so the outputs that name a file
are the same in every checkout.

* ``corpus``: the built-in theorem corpus (integer kernels, no geometry).
* ``solve-large``: one large Eulerian or seeded rational kernel per job.
* ``geometry``: lattice point counting and group actions.

The seed chooses the job order and the rational scalars c of the
``solve-large`` kernel files; nothing else depends on it.
"""

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import inputs

WORKLOADS = ("corpus", "solve-large", "geometry")

#: Generated inputs and trace files, relative to the checkout root.
WORK_DIR = os.path.join("bench", ".work")
INPUT_DIR = os.path.join(WORK_DIR, "inputs")
GOLDEN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

#: Bundled complexes of the geometry workload, and the subcommands run on
#: each; unit_cube keeps only its headline hstar job to fit the run length.
COMPLEX_JOBS = {
    "unit_cube": ["hstar"],
    "crosscut_d4": ["check", "hstar", "local-hstar", "series",
                    "reciprocity"],
    "unit_square": ["check", "hstar", "local-hstar", "series",
                    "reciprocity"],
    "seg4_flip": ["check", "hstar", "local-hstar", "series", "reciprocity"],
}

#: The posets of solve-large, each small enough that the six jobs on all
#: four fit twice into one run, and deep enough (rank 5 or 6) that every
#: job is dominated by polynomial arithmetic on long intervals.
SOLVE_POSETS = {
    "boolean6": lambda: inputs.boolean_poset(6),
    "cube4": lambda: inputs.cube_poset(4),
    "cross4": lambda: inputs.cross_polytope_poset(4),
    "polygon12xboolean2": lambda: inputs.polygon_times_boolean(12, 2),
}

SOLVE_WHATS = ("g", "f", "z", "h", "toric-h")


@dataclass(frozen=True)
class Job:
    """One command line and what its answer is checked against.

    A job without ``scale`` must reproduce its golden stdout.  A job with
    ``scale = (reference, c, rank)`` prints a Z table that must equal the
    table of job ``reference`` scaled by c^(rank[y] - rank[x]).
    """
    id: str
    args: tuple
    scale: tuple = None


def _input_path(name):
    return os.path.join(INPUT_DIR, f"{name}.json")


#: Corpus suites; corollary-f is left out to fit the run length, since
#: corollary-z already runs solve_f (and z_function) once per triple.
CORPUS_SUITES = ("theorem-g", "corollary-z", "products", "composition")


def _corpus_jobs():
    return [Job(f"corpus/{suite}", ("verify", "--suite", suite))
            for suite in CORPUS_SUITES]


def _solve_jobs(root, rng):
    jobs = []
    for name, make in SOLVE_POSETS.items():
        doc = make()
        path = _input_path(name)
        inputs.write_json(os.path.join(root, path), doc)
        for what in SOLVE_WHATS:
            extra = ("--all",) if what == "z" else ()
            jobs.append(Job(f"solve-large/{name}/{what}",
                            ("kls", path, "--what", what) + extra))
        c = inputs.seeded_scalar(rng)
        kernel = os.path.join(INPUT_DIR, f"{name}_kernel.json")
        inputs.write_json(os.path.join(root, kernel),
                          inputs.scaled_kernel(doc, c))
        jobs.append(Job(f"solve-large/{name}/z-kernel",
                        ("kls", path, "--what", "z", "--all",
                         "--kernel", kernel),
                        scale=(f"solve-large/{name}/z", c,
                               tuple(doc["rank"]))))
    return jobs


def _geometry_jobs(root):
    jobs = []
    for name, whats in COMPLEX_JOBS.items():
        fixture = f"fixture:{name}.json"
        for what in whats:
            args = ("check", fixture) if what == "check" else \
                ("ehrhart", fixture, "--what", what)
            jobs.append(Job(f"geometry/{name}/{what}", args))
    for name, make in inputs.B3_FANS.items():
        path = _input_path(name)
        inputs.write_json(os.path.join(root, path), make())
        jobs.append(Job(f"geometry/{name}/check", ("check", path)))
        jobs.append(Job(f"geometry/{name}/verify",
                        ("verify", path, "--suite", "equivariant")))
    jobs.append(Job("geometry/polygon_s3_top/local-equivariant",
                    ("local", "fixture:polygon_s3_top.json", "--equivariant",
                     "fixture:polygon_s3_rotation.json", "--all")))
    jobs.append(Job("geometry/verify-equivariant",
                    ("verify", "--suite", "equivariant")))
    return jobs


def build(workload, seed, root):
    """Write the workload's inputs under ``root`` and return its jobs.

    Same seed, same job list; the order is a seeded shuffle.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "corpus":
        jobs = _corpus_jobs()
    elif workload == "solve-large":
        jobs = _solve_jobs(root, rng)
    elif workload == "geometry":
        jobs = _geometry_jobs(root)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# -- answer checks -----------------------------------------------------------

def digest(stdout):
    return hashlib.sha256(stdout).hexdigest()


def load_golden(path=GOLDEN_FILE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


_PASSED = re.compile(rb"^passed (\d+)/(\d+)$")


def verify_passed(stdout):
    lines = stdout.rstrip(b"\n").split(b"\n")
    match = _PASSED.match(lines[-1])
    return match is not None and match.group(1) == match.group(2)


def parse_table(stdout):
    """``{(x, y): [Fraction, ...]}`` from the lines ``x y: c0,c1,...``."""
    table = {}
    for line in stdout.decode().splitlines():
        pair, _, coeffs = line.partition(":")
        x, y = pair.split()
        table[int(x), int(y)] = [Fraction(c) for c in coeffs.split(",")]
    return table


def scaled_table_ok(reference, scaled, c, rank):
    """True when every value of ``scaled`` is c^(rank[y] - rank[x]) times
    the matching value of ``reference``, over the same nonempty intervals."""
    try:
        ref, got = parse_table(reference), parse_table(scaled)
    except ValueError:
        return False
    if not ref or ref.keys() != got.keys():
        return False
    for (x, y), coeffs in ref.items():
        factor = c ** (rank[y] - rank[x])
        if got[x, y] != [v * factor for v in coeffs]:
            return False
    return True


def failed_jobs(jobs, results, golden):
    """Ids of the jobs whose exit code or answer is wrong.

    ``results`` maps a job id to ``(returncode, stdout bytes)``.  A scaled
    job also fails when its reference job failed, since then the identity
    has nothing trustworthy to compare against.
    """
    failed = []
    ok = {}
    for job in sorted(jobs, key=lambda j: j.scale is not None):
        code, stdout = results[job.id]
        if job.scale is None:
            good = code == 0 and digest(stdout) == golden.get(job.id)
            if good and job.args[0] == "verify":
                good = verify_passed(stdout)
        else:
            reference, c, rank = job.scale
            good = (code == 0 and ok.get(reference, False)
                    and scaled_table_ok(results[reference][1], stdout, c,
                                        rank))
        ok[job.id] = good
        if not good:
            failed.append(job.id)
    return failed
