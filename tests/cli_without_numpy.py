"""Run the CLI verbs that need no numpy (star, tll, tlr, compare, ess, inv,
render of permutations) with numpy made unimportable, and check their exit
codes and standard output against tests/golden/numpy_free_cli.txt.  One
grid verb, ``rankgrid glue``, must exit 3 there with no output.

The golden file holds one case per ``$ ARGV`` line, followed by the exact
standard output and an ``[exit CODE]`` line; the bytes were recorded from
the numpy grid engine, and those of ``compare wleft`` and ``compare
wright`` from the numpy inversion masks that the pure-Python scan
replaced.  Run it from the repository root:

    PYTHONPATH=src python tests/cli_without_numpy.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import shlex
import sys

sys.modules["numpy"] = None  # every import of numpy now raises ImportError

from demaz.cli import main  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden" / "numpy_free_cli.txt"


def cases(text: str) -> list[tuple[list[str], int, str]]:
    """(argv, exit code, stdout) for each case of the golden file."""
    out = []
    for block in re.split(r"^\$ ", text, flags=re.M)[1:]:
        head, *lines = block.splitlines()
        code = int(lines.pop().removeprefix("[exit ").removesuffix("]"))
        out.append((shlex.split(head), code, "".join(ln + "\n" for ln in lines)))
    return out


def run() -> int:
    todo = cases(GOLDEN.read_text(encoding="utf-8"))
    failed = 0
    for argv, code, want in todo:
        buf = io.StringIO()
        quiet = contextlib.redirect_stderr(io.StringIO())
        with contextlib.redirect_stdout(buf), quiet:
            got = main(argv)
        if (got, buf.getvalue()) != (code, want):
            failed += 1
            print(f"FAIL demaz {shlex.join(argv)}: exit {got}, "
                  f"stdout {buf.getvalue()!r}", file=sys.stderr)
    print(f"{len(todo) - failed} of {len(todo)} numpy-free CLI goldens match")
    return 1 if failed or not todo else 0


if __name__ == "__main__":
    sys.exit(run())
