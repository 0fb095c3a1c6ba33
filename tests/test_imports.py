"""Which regseq modules each entry point loads.

The package resolves its submodules on first use (PEP 562) and every CLI
handler imports only the layers it runs, so a one-shot `regseq` process
compiles no module its subcommand does not need.  The module sets are read
in a fresh interpreter per call, as test_sympy_stays_off_the_import_path
does for sympy.
"""

import json
import os
import subprocess
import sys

import pytest

import regseq

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ALL_MODULES = {name[:-3] for name in os.listdir(os.path.join(SRC, "regseq"))
               if name.endswith(".py") and name != "__init__.py"}

EVAL = {"cli", "jsonio", "sequences", "polyops", "certs"}
CALLS = {
    "eval": (["eval", "--seq", "{pow2}", "--n", "5"], EVAL),
    "eval-op": (["eval", "--seq", "{pow2}", "--n", "5", "--op", "[-2,1]"],
                EVAL | {"operators"}),
    "classify": (["classify", "--seq", "{pow2}", "--op", "[-2,1]"],
                 EVAL | {"operators"}),
    "periodicity": (["periodicity", "--seq", "{fib}", "--modulus", "3"],
                    EVAL | {"congruence"}),
    "solve": (["solve", "--seq", "{fib}", "--problem", "{problem}", "--oracle", "8"],
              EVAL | {"equations", "operators", "subsums"}),
    "decide": (["decide", "--seq", "{pow2}", "--formula", "{formula}"],
               ALL_MODULES - {"mann", "syndetic"}),
    "mann-enumerate": (["mann", "enumerate", "--gens", "2,3", "--bound", "50"],
                       {"cli", "jsonio", "mann", "certs", "subsums"}),
    "gap-runs": (["syndetic", "gap-runs", "--set", "{progression}",
                  "--horizon", "100", "--d", "3"],
                 {"cli", "jsonio", "syndetic"}),
}


def loaded_modules(code):
    """The regseq submodules loaded after running `code` in a fresh
    interpreter (its own stdout is discarded)."""
    script = ("import contextlib, io, json, sys\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    exec(%r)\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m.startswith('regseq'))))\n" % code)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout)
    assert "regseq" in names
    return {name.split(".", 1)[1] for name in names if name != "regseq"}


@pytest.fixture
def files(tmp_path):
    contents = {
        "pow2": {"kind": "power", "q": "2"},
        "fib": {"kind": "recurrence", "coeffs": ["1", "1"], "initials": ["1", "2"]},
        "problem": {"operators": [["1"], ["1"], ["-1"]], "target": "0"},
        "progression": {"kind": "progression", "a": "1", "d": "3"},
    }
    paths = {}
    for name, obj in contents.items():
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(obj), encoding="utf-8")
    paths["formula"] = tmp_path / "f.trf"
    paths["formula"].write_text("E x in R. D3(x + 2) & x > 1", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_each_call_loads_only_its_layers(files, call):
    argv, expected = CALLS[call]
    argv = [arg.format(**files) for arg in argv]
    code = ("from regseq import cli\n"
            "assert cli.main(%r) in (0, 1)\n" % argv)
    assert loaded_modules(code) == expected


def test_import_loads_no_submodule():
    assert loaded_modules("import regseq") == set()
    assert loaded_modules("import regseq.cli") == {"cli", "jsonio"}


def test_every_public_name_resolves():
    for name in regseq.__all__:
        value = getattr(regseq, name)
        if name != "__version__":
            assert value is sys.modules["regseq." + name]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        regseq.nonexistent
    with pytest.raises(ImportError):
        from regseq import nonexistent  # noqa: F401


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from regseq import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(regseq.__all__)
    assert loaded_modules("from regseq import *") == ALL_MODULES
