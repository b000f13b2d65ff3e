"""Command-line surface for the library.

Verbs: star|tll|tlr|compose|inverse|compare|ess|inv|render|rankgrid|validate|oracle.
Results go to standard output, diagnostics to standard error.  Exit codes:
0 success (or a true comparison), 1 false comparison / failed validation,
2 parse error or a file that cannot be read or written, 3 domain error (or a
grid verb without numpy installed), 4 resource cap exceeded.

Each verb handler imports the modules it runs, so a call loads only those:
the permutation verbs never load the slipface grid engine (``slipface``) or
the brute-force ``oracle``, and ``json`` loads for ``--json`` alone.  The
parser names every verb but builds only the invoked verb's subparser
(``_Verbs``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    DemazError,
    InvalidPermutation,
    ParseError,
    ResourceLimit,
)
from .grammar import format_perm, parse_perm
from .perm import (
    Permutation,
    get_max_window,
    inv_count,
    inverse,
    is_finitary,
    compose,
    set_max_window,
)


def _perm_json(p: Permutation) -> dict:
    return {
        "schema": "demaz.perm/1",
        "period": p.period,
        "lo": p.lo,
        "vals": list(p.vals),
        "chi": p.chi,
        "diff_bound": p.diff_bound,
    }


def _stdout(text: str, flush: bool = False) -> None:
    """Write to standard output; an OSError there names ``<stdout>``."""
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except OSError as e:
        e.filename = "<stdout>"
        raise


def _emit(text: str) -> None:
    _stdout(text + "\n")


def _emit_json(obj) -> None:
    import json

    _emit(json.dumps(obj, sort_keys=True))


def _emit_perm(p: Permutation, as_json: bool, extended: bool) -> None:
    if as_json:
        _emit_json(_perm_json(p))
    else:
        _emit(format_perm(p))
    if extended:
        from .slipface import sf_from_perm, sf_validate

        if parse_perm(format_perm(p)) != p:
            raise DemazError("extended check failed: format round trip")
        bad = sf_validate(sf_from_perm(p))
        if bad:
            raise DemazError("extended check failed: " + bad[0])


def _read_text(path: str) -> str:
    """The text of a grid file; one that is not UTF-8 is a file error, as
    one that cannot be opened."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise OSError(None, "not UTF-8 text", path) from None


def _load_render_arg(arg: str):
    """A slipface from a grid file, else a permutation expression."""
    if os.path.exists(arg):
        from .slipface import read_slipface

        return read_slipface(_read_text(arg))
    return parse_perm(arg)


def _load_slipface_arg(arg: str):
    """A slipface from either a permutation expression or a grid file."""
    from .slipface import sf_from_perm

    s = _load_render_arg(arg)
    return sf_from_perm(s) if isinstance(s, Permutation) else s


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi)
    except ValueError:
        raise ParseError("range must look like LO:HI", text, 0)


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_compute(args) -> int:
    a = parse_perm(args.a)
    if args.verb == "inverse":
        _emit_perm(inverse(a), args.json, args.extended_checks)
        return 0
    b = parse_perm(args.b)
    if args.verb == "compose":
        r = compose(a, b)
    else:
        from . import demazure

        r = getattr(demazure, args.verb)(a, b)
        if args.extended_checks and demazure.grid_product(args.verb, a, b) != r:
            raise DemazError(
                f"extended check failed: affine {args.verb} differs from "
                "the grid engine"
            )
    _emit_perm(r, args.json, args.extended_checks)
    return 0


def _cmd_compare(args) -> int:
    from . import order

    a, b = parse_perm(args.a), parse_perm(args.b)
    rels = {
        "leq": order.bruhat_leq_witness,
        "wleft": order.weak_left_leq_witness,
        "wright": order.weak_right_leq_witness,
    }
    if args.rel == "leq_chi":
        if a.chi != b.chi:
            ok, wit = False, None
        else:
            ok, wit = order.bruhat_leq_witness(a, b)
    else:
        ok, wit = rels[args.rel](a, b)
    if args.extended_checks and args.rel == "leq":
        from .slipface import sf_from_perm, sf_leq_ess, sf_leq_grid

        sa, sb = sf_from_perm(a), sf_from_perm(b)
        if sf_leq_grid(sa, sb)[0] != ok:
            raise DemazError("extended check failed: comparators disagree")
        if sf_leq_ess(sa, sb) != (ok, wit):
            raise DemazError(
                "extended check failed: rank-table comparison differs from the "
                "grid engine"
            )
    if args.json:
        _emit_json(
            {
                "schema": "demaz.compare/1",
                "relation": args.rel,
                "result": ok,
                "witness": list(wit) if wit else None,
            }
        )
    elif ok:
        _emit("true")
    elif wit:
        _emit(f"false witness=({wit[0]},{wit[1]})")
    else:
        _emit("false")
    return 0 if ok else 1


def _cmd_ess(args) -> int:
    from .order import perm_ess_set

    p = parse_perm(args.a)
    e = perm_ess_set(p)
    if args.extended_checks:
        from .slipface import ess_set, sf_from_perm

        if e != ess_set(sf_from_perm(p)):
            raise DemazError("extended check failed: ess differs from the grid engine")
    if args.json:
        _emit_json(
            {
                "schema": "demaz.ess/1",
                "points": [[p.a, p.b, p.value] for p in e.points],
                "periodic": e.periodic,
                "period": e.period,
            }
        )
        return 0
    for p in e.points:
        _emit(f"({p.a},{p.b}) value={p.value}")
    if e.periodic:
        _emit(f"periodic (repeats with period {e.period})")
    return 0


def _cmd_inv(args) -> int:
    p = parse_perm(args.a)
    if not is_finitary(p):
        if args.json:
            _emit_json({"schema": "demaz.inv/1", "count": None, "infinite": True})
        else:
            _emit("infinite")
        return 0
    n = inv_count(p)
    if args.json:
        _emit_json({"schema": "demaz.inv/1", "count": n, "infinite": False})
    else:
        _emit(str(n))
    return 0


def _cmd_render(args) -> int:
    from .render import RenderSpec, render

    s = _load_render_arg(args.a)
    a_lo, a_hi = _parse_range(args.arange)
    b_lo, b_hi = _parse_range(args.brange)
    try:
        spec = RenderSpec(a_lo, a_hi, b_lo, b_hi, args.format, args.mode)
    except ValueError as e:
        raise ParseError(str(e), args.arange, 0)
    text = render(s, spec)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as e:
            e.filename = args.output  # a failed write or close names no file
            raise
    else:
        _stdout(text)
    return 0


def _cmd_rankgrid(args) -> int:
    from .slipface import sf_star, sf_to_perm, write_slipface

    if args.action == "to-perm":
        s = _load_slipface_arg(args.file)
        _emit_perm(sf_to_perm(s), args.json, args.extended_checks)
        return 0
    if args.action == "glue":
        s = _load_slipface_arg(args.file)
        t = _load_slipface_arg(args.file2)
        _stdout(write_slipface(sf_star(s, t)))
        return 0
    # dim: transmission-permutation dimension count g - #Inv
    s = _load_slipface_arg(args.file)
    tau = sf_to_perm(s)
    dim = args.genus - inv_count(tau)
    if args.json:
        _emit_json(
            {
                "schema": "demaz.dim/1",
                "genus": args.genus,
                "inversions": inv_count(tau),
                "dim": dim,
            }
        )
    else:
        _emit(str(dim))
    return 0


def _cmd_validate(args) -> int:
    if os.path.exists(args.a):
        try:
            _load_render_arg(args.a)
        except DemazError as e:
            if isinstance(e, (ParseError, ResourceLimit)):
                raise
            print(f"invalid: {e}", file=sys.stderr)
            _emit("invalid")
            return 1
        _emit("valid")
        return 0
    try:
        p = parse_perm(args.a)
    except InvalidPermutation as e:
        for v in e.violations:
            print(f"invalid: {v.kind}: {v.detail}", file=sys.stderr)
        _emit("invalid")
        return 1
    _emit(f"valid {format_perm(p)}")
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle

    if args.action == "eval":
        p = parse_perm(args.a)
        from .perm import eval_s

        got = eval_s(p, args.x, args.y)
        want = oracle.oracle_eval_s(p, args.x, args.y, args.radius)
        _emit(f"engine={got} oracle={want}")
        return 0 if got == want else 1
    # star: brute S_d product
    p, q = parse_perm(args.a), parse_perm(args.b)
    _emit_perm(oracle.oracle_star_sd(p, q, args.d), args.json, args.extended_checks)
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _global_flags(default) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--json", action="store_true", default=default, help="structured output"
    )
    p.add_argument(
        "--max-window",
        type=_positive_int,
        default=default,
        metavar="N",
        help="resource cap on window sizes",
    )
    p.add_argument(
        "--extended-checks",
        action="store_true",
        default=default,
        help="re-verify results through independent paths",
    )
    return p


def _add_pair(sp, shared) -> None:
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=_cmd_compute)


def _add_compare(sp, shared) -> None:
    sp.add_argument("rel", choices=("leq", "leq_chi", "wleft", "wright"))
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=_cmd_compare)


def _add_one(fn):
    def add(sp, shared) -> None:
        sp.add_argument("a")
        sp.set_defaults(fn=fn)

    return add


def _add_render(sp, shared) -> None:
    sp.add_argument("a", help="permutation expression or slipface file")
    sp.add_argument("--format", choices=("ascii", "svg", "pgm"), default="ascii")
    sp.add_argument("--mode", choices=("heatmap", "profiles"), default="heatmap")
    sp.add_argument("--arange", required=True, metavar="LO:HI")
    sp.add_argument("--brange", required=True, metavar="LO:HI")
    sp.add_argument("-o", "--output", metavar="FILE")
    sp.set_defaults(fn=_cmd_render)


def _add_rankgrid(sp, shared) -> None:
    rg = sp.add_subparsers(dest="action", required=True)
    g1 = rg.add_parser("to-perm", parents=[shared])
    g1.add_argument("file")
    g1.set_defaults(fn=_cmd_rankgrid)
    g2 = rg.add_parser("glue", parents=[shared])
    g2.add_argument("file")
    g2.add_argument("file2")
    g2.set_defaults(fn=_cmd_rankgrid)
    g3 = rg.add_parser("dim", parents=[shared])
    g3.add_argument("file", help="rank grid file or permutation expression")
    g3.add_argument("--genus", type=int, required=True)
    g3.set_defaults(fn=_cmd_rankgrid)


def _add_validate(sp, shared) -> None:
    sp.add_argument("a", help="permutation expression or slipface file")
    sp.set_defaults(fn=_cmd_validate)


def _add_oracle(sp, shared) -> None:
    oc = sp.add_subparsers(dest="action", required=True)
    o1 = oc.add_parser("eval", parents=[shared])
    o1.add_argument("a")
    o1.add_argument("x", type=int)
    o1.add_argument("y", type=int)
    o1.add_argument("--radius", type=int, default=256)
    o1.set_defaults(fn=_cmd_oracle)
    o2 = oc.add_parser("star", parents=[shared])
    o2.add_argument("a")
    o2.add_argument("b")
    o2.add_argument("--d", type=int, default=4)
    o2.set_defaults(fn=_cmd_oracle)


# each verb's arguments, added to its subparser when the verb is selected
_VERBS = {
    "star": _add_pair,
    "tll": _add_pair,
    "tlr": _add_pair,
    "compose": _add_pair,
    "inverse": _add_one(_cmd_compute),
    "compare": _add_compare,
    "ess": _add_one(_cmd_ess),
    "inv": _add_one(_cmd_inv),
    "render": _add_render,
    "rankgrid": _add_rankgrid,
    "validate": _add_validate,
    "oracle": _add_oracle,
}


class _Verbs(argparse._SubParsersAction):
    """The verb subparsers, built when argparse selects a verb: ``choices``
    names every verb for the usage line and its errors, and a call builds
    the one subparser it parses."""

    def __call__(self, parser, namespace, values, option_string=None):
        # subparsers must not re-apply defaults over flags parsed at top
        # level, so their copy of the shared flags defaults to SUPPRESS
        shared = _global_flags(argparse.SUPPRESS)
        verb = values[0]
        _VERBS[verb](self.add_parser(verb, parents=[shared]), shared)
        super().__call__(parser, namespace, values, option_string)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="demaz",
        parents=[_global_flags(None)],
        description="Demazure products and stingy adjoints on eventually "
        "periodic permutations of the integers.",
    )
    sub = ap.add_subparsers(dest="verb", required=True, action=_Verbs)
    sub.choices = tuple(_VERBS)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.json = bool(getattr(args, "json", None))
    args.max_window = getattr(args, "max_window", None)
    args.extended_checks = bool(getattr(args, "extended_checks", None))
    old_cap = get_max_window()
    if args.max_window is not None:
        set_max_window(args.max_window)
    try:
        code = args.fn(args)
        _stdout("", flush=True)
        return code
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 4
    except DemazError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        # a file argument, -o target or standard output that cannot be
        # opened, read or written
        if e.filename is None:
            raise
        print(f"file error: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as e:
        # the grid engine's verbs need numpy, an optional extra
        if e.name != "numpy":
            raise
        print(
            'error: the grid engine needs numpy; install it with '
            'pip install "demaz[grid]"',
            file=sys.stderr,
        )
        return 3
    finally:
        # the cap lives in the caller's context; restore it so an embedded
        # caller is not left with this invocation's limit
        set_max_window(old_cap)


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write; the bytes still buffered would
        # fail again in the interpreter's exit flush, which exits 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
