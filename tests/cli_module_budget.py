"""Run each permutation verb of the CLI in a fresh interpreter and check that
it loads none of the modules outside its budget: the slipface grid engine
(``demaz.slipface``), the brute-force ``demaz.oracle``, ``dataclasses``,
``inspect`` and ``numpy``.  Two grid verbs, ``--extended-checks`` and
``rankgrid glue``, must still load ``demaz.slipface``, so the check cannot
pass vacuously; without numpy installed they exit 3 at its import, after
loading the grid engine.  The children import demaz from this checkout's
src directory:

    python tests/cli_module_budget.py
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

OUTSIDE = ("demaz.slipface", "demaz.oracle", "dataclasses", "inspect", "numpy")

A3, A5 = "aff(3; 2 -3 4)", "aff(5; 3 -1 7 0 6)"
MIXED = "ep(k=2, lo=-2; -2 -1 1 0)"

# (argv, exit code) of the permutation verbs
LIGHT = [
    (["star", "sym(1; 3 1 4 2)", "sym(1; 2 1)"], 0),
    (["star", MIXED, "sym(1; 2 1)"], 0),
    (["--json", "star", A3, A5], 0),
    (["tll", A3, "sym(29; 31 29 32 30)"], 0),
    (["tlr", "sym(1; 3 1 4 2)", MIXED], 0),
    (["compose", A3, "sym(1; 2 1)"], 0),
    (["inverse", A5], 0),
    (["compare", "leq", "sym(1; 2 1)", "sym(1; 3 2 1)"], 0),
    (["compare", "leq", "gamma(2,3)", "gamma(1,2)"], 1),
    (["--json", "compare", "leq_chi", "sigma(2)", "sym(1; 3 2 1)"], 0),
    (["ess", "gamma(3,5)"], 0),
    (["inv", "sym(1; 3 1 4 2)"], 0),
    (["render", A3, "--format=svg", "--mode=profiles", "--arange=-4:3",
      "--brange=-2:2"], 0),
    (["validate", A3], 0),
    (["validate", "ep(k=2, lo=0; 0 2)"], 1),
    (["compare", "wleft", "sym(1; 3 2 1)", "sym(1; 2 1)"], 1),
    (["compare", "wright", A3, "ep(k=7, lo=0; 20 14 24 18 12 29 23)"], 1),
]
# verbs that run the grid engine
GRID = [
    ["--extended-checks", "star", "sym(1; 2 1)", "sym(1; 1 3 2)"],
    ["rankgrid", "glue", "sym(1; 2 1)", "sym(1; 1 3 2)"],
]

# one CLI call through demaz.cli.main, then the watched modules it loaded
CHILD = f"""
import contextlib, io, sys
from demaz.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *[m for m in {OUTSIDE!r} if m in sys.modules])
"""


def loaded(argv: list[str]) -> tuple[int, list[str]]:
    """The exit code of ``demaz ARGV`` in a fresh interpreter, and which of
    the OUTSIDE modules it loaded."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    if proc.returncode != 0 or not proc.stdout:
        raise RuntimeError(f"demaz {argv} crashed: {proc.stderr[-1000:]}")
    code, *modules = proc.stdout.split()
    return int(code), modules


def run() -> int:
    failed = 0
    for argv, want in LIGHT:
        code, modules = loaded(argv)
        if code != want or modules:
            failed += 1
            print(f"FAIL demaz {argv}: exit {code}, loaded {modules}", file=sys.stderr)
    for argv in GRID:
        if "demaz.slipface" not in loaded(argv)[1]:
            failed += 1
            print(f"FAIL demaz {argv}: the grid engine did not load", file=sys.stderr)
    total = len(LIGHT) + len(GRID)
    print(f"{total - failed} of {total} CLI calls keep their module budget")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
