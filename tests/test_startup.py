"""Start-up contract: each subcommand loads only the layers it uses.

Every case runs in a fresh interpreter and reports which modules of the
package were loaded when the command returned; the tests themselves
import the whole package, so only a new process can see this.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klspoly

SRC = str(Path(klspoly.__file__).resolve().parents[1])

PROBE = ("import json, sys\n"
         "from klspoly import cli\n"
         "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
         "print(json.dumps([code, sorted(name[len('klspoly.'):] "
         "for name in sys.modules if name.startswith('klspoly.'))]))\n")

GEOMETRY = {"linalg", "fans", "equivariant", "ehrhart"}


def loaded_modules(*argv):
    """(exit code, set of klspoly modules loaded) of ``klspoly ARGV``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def test_importing_the_command_line_loads_nothing_above_incidence():
    code, modules = loaded_modules()
    assert code == 0
    assert modules == {"cli", "incidence", "polynomial", "poset", "schemas",
                       "status"}


@pytest.mark.parametrize("what", ["g", "z", "h"])
def test_kls_on_a_poset_loads_no_subdivision_or_geometry(what):
    code, modules = loaded_modules("kls", "fixture:boolean4.json",
                                   "--what", what)
    assert code == 0
    assert "incidence" in modules
    assert not modules & (GEOMETRY | {"subdivision", "verify"})


@pytest.mark.parametrize("suite", ["theorem-g", "corollary-z", "products",
                                   "composition"])
def test_a_corpus_suite_loads_no_geometry(suite):
    code, modules = loaded_modules("verify", "--suite", suite)
    assert code == 0
    assert {"subdivision", "verify"} <= modules
    assert not modules & GEOMETRY


def test_ehrhart_does_not_load_the_verify_suites():
    code, modules = loaded_modules("ehrhart", "fixture:seg2_flip.json",
                                   "--what", "hstar")
    assert code == 0
    assert "ehrhart" in modules
    assert "verify" not in modules
