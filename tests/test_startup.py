"""Process contracts of the command line, each run in a fresh interpreter.

Start-up: each subcommand loads only the layers it uses.  Every case
reports which modules of the package were loaded when the command
returned; the tests themselves import the whole package, so only a new
process can see this.  Shutdown: a command runs clean under the
interpreter's development mode with warnings as errors, and a closed
standard output ends it quietly.
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


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def loaded_modules(*argv):
    """(exit code, set of klspoly modules loaded) of ``klspoly ARGV``."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, env=_env())
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


@pytest.mark.parametrize("argv", [
    ["fixture:unit_cube.json", "--what", "series", "--order", "-1"],
    ["{tmp}/no_coarse.json", "--what", "local-hstar"],
], ids=["negative-order", "local-hstar-without-coarse-faces"])
def test_a_refused_ehrhart_loads_no_computing_layer(tmp_path, argv):
    document = json.loads(Path(klspoly.__file__).with_name("fixtures")
                          .joinpath("unit_cube.json")
                          .read_text(encoding="utf-8"))
    del document["coarse"]
    (tmp_path / "no_coarse.json").write_text(json.dumps(document),
                                             encoding="utf-8")
    code, modules = loaded_modules(
        "ehrhart", *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
    assert code == 2
    assert not modules & (GEOMETRY | {"subdivision"})


def test_ehrhart_does_not_load_the_verify_suites():
    code, modules = loaded_modules("ehrhart", "fixture:seg2_flip.json",
                                   "--what", "hstar")
    assert code == 0
    assert "ehrhart" in modules
    assert "verify" not in modules


@pytest.mark.parametrize("argv", [
    ["check", "fixture:unit_cube.json"],
    ["kls", "fixture:boolean3.json", "--what", "z", "--all",
     "--format", "json"],
    ["local", "fixture:polygon_s3_top.json",
     "--equivariant", "fixture:polygon_s3_rotation.json", "--all"],
    ["verify", "--suite", "composition"],
    ["ehrhart", "fixture:unit_square.json", "--what", "series"],
], ids=["check", "kls", "local", "verify", "ehrhart"])
def test_a_command_runs_clean_in_development_mode(argv):
    # an unclosed file, a deprecated call or an open() without an
    # encoding would print a warning, here turned into an error
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-X", "warn_default_encoding",
         "-W", "error", "-m", "klspoly.cli", *argv],
        capture_output=True, text=True, env=_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_a_closed_standard_output_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "klspoly.cli", "local",
             "fixture:polygon_s3.json", "--all"],
            stdout=write_end, stderr=subprocess.PIPE, env=_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
