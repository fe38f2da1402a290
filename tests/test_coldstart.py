"""Start-up: closed-form paths load no numpy or verify code.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genfrob

SRC = str(Path(genfrob.__file__).resolve().parent.parent)
HEAVY = ("numpy", "genfrob.verify")


def _fresh(code: str, **env) -> list:
    """The HEAVY modules loaded after ``code`` runs in a fresh interpreter."""
    code += f"\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _cli(argv) -> str:
    """Code that runs ``cli.main(argv)``, requires exit 0 and keeps stdout in
    ``out``; ``argv`` is a list or the source of an expression."""
    return f"""
import contextlib, io
from genfrob import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main({argv if isinstance(argv, str) else repr(argv)})
out = buf.getvalue()
assert code == 0, (code, out)
"""


def test_import_and_closed_form_counts_stay_cold():
    code = """
import genfrob
assert not set(genfrob.__all__) - set(dir(genfrob))
assert genfrob.denumerant(10**9, (2, 3)) == 166666667
assert genfrob.denumerant(120, (10, 15, 21)) == 6
assert genfrob.gen_frobenius_two(7, 11, 3) == 290
assert genfrob.KERNEL_BACKEND == "python"
"""
    assert _fresh(code) == []


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["denumerant", "--tuple", "2,3", "--n", "1000000000"], "166666667\n"),
        (["denumerant", "--tuple", "2,3,5", "--n", "1000000000"], "16666666833333334\n"),
        (["frobenius", "--tuple", "7,11", "--s", "3"], "290\nmethod: two_var_closed_form\n"),
        (["theorem1", "--tuple", "10,15,21", "--s", "0..5,100"], None),
    ],
)
def test_closed_form_subcommands_stay_cold(argv, stdout):
    check = f"\nassert out == {stdout!r}, out" if stdout else ""
    assert _fresh(_cli(argv) + check) == []


def test_frobenius_by_a_sigma_match_stays_cold():
    # sigma(3) of the first case of (10, 15, 21) is a pinned index
    code = (
        "from genfrob.closedform import detect_cases\n"
        "s = detect_cases((10, 15, 21))[0].sigma(3)\n"
        + _cli("['frobenius', '--tuple', '10,15,21', '--s', str(s)]")
        + "assert out.endswith('method: theorem1\\n'), out\n"
    )
    assert _fresh(code) == []


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["uset", "--tuple", "10,15,21", "--s-max", "20"], {"numpy"}),
        (["frobenius", "--tuple", "7,11", "--s", "3", "--method", "brute"], {"numpy"}),
        (["denumerant", "--tuple", "2,3,5,7", "--n", "100"], {"numpy"}),
        (
            ["verify", "--suite", "twovar", "--max-ab", "4", "--max-s", "1"],
            {"numpy", "genfrob.verify"},
        ),
    ],
)
def test_table_subcommands_load_the_table_code(argv, expected):
    assert expected <= set(_fresh(_cli(argv)))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from genfrob import *", namespace)
    assert set(genfrob.__all__) <= set(namespace)
    assert namespace["SUITES"] is genfrob.verify.SUITES


def test_no_ext_env_selects_the_python_backend():
    """``GENFROB_NO_EXT`` no longer picks anything, but setting it still
    leaves the one numpy kernel in place."""
    code = """
import genfrob
from genfrob import _kernel
assert genfrob.KERNEL_BACKEND == "python"
assert list(_kernel.build_counts((2, 3), 6)) == [1, 0, 1, 1, 1, 1, 2]
"""
    assert _fresh(code, GENFROB_NO_EXT="1") == ["numpy"]
