"""The operations the benchmark times, their traced pipelines and their checks.

An op is (kind, args): args are canonical ``ep(...)`` strings, or an argv list
for ``cli.*`` kinds.  ``run_op`` makes the public library call a user makes;
``run_traced`` makes the same computation through the library's public
pipeline stages, each inside a span.  ``check`` decides whether an output is
correct without timing, through oracles, identities and certificates that do
not share the code path under test.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
from io import StringIO
from contextlib import redirect_stdout

from demaz import (
    ResidueClass,
    RenderSpec,
    apply,
    bruhat_leq,
    compose,
    eval_s,
    ess_set,
    format_perm,
    from_window,
    has_inversion,
    inv_count,
    inverse,
    is_finitary,
    is_reduced_pair,
    leq_chi,
    parse_perm,
    read_slipface,
    reduce,
    render,
    sf_from_perm,
    sf_leq_ess,
    sf_leq_grid,
    sf_star,
    sf_tll,
    sf_tlr,
    sf_to_perm,
    star,
    star_sigma,
    tll,
    tll_sigma,
    tlr,
    weak_left_leq,
    write_slipface,
)
from demaz.cli import main as cli_main
from demaz.oracle import (
    oracle_greedy_max,
    oracle_star_sd,
    oracle_star_word,
    oracle_stingy_min,
    sd_leq,
)

PRODUCTS = {"star", "tll", "tlr", "compose", "cli.star", "cli.tll", "cli.glue"}
QUERIES = {
    "bruhat_leq",
    "weak_left_leq",
    "is_reduced_pair",
    "ess",
    "inv_count",
    "cli.leq",
    "cli.ess",
    "cli.inv",
    "cli.render",
}

# the program of every CLI call: `python -m demaz` exits 0 without running
# anything, so the CLI is entered through demaz.cli.main directly
CLI_CODE = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from demaz.cli import main; sys.exit(main(sys.argv[1:]))"
)


def category(kind: str) -> str:
    if kind in PRODUCTS:
        return "product"
    if kind in QUERIES:
        return "query"
    return "other"


# ---------------------------------------------------------------------------
# untraced: the public calls


def _ess_out(e):
    return (tuple(tuple(pt) for pt in e.points), e.periodic, e.period)


def _reduce_out(w):
    return (format_perm(w.alpha1), format_perm(w.beta1))


_PUBLIC = {
    "star": lambda a, b: format_perm(star(parse_perm(a), parse_perm(b))),
    "tll": lambda a, b: format_perm(tll(parse_perm(a), parse_perm(b))),
    "tlr": lambda a, b: format_perm(tlr(parse_perm(a), parse_perm(b))),
    "compose": lambda a, b: format_perm(compose(parse_perm(a), parse_perm(b))),
    "inverse": lambda a: format_perm(inverse(parse_perm(a))),
    "bruhat_leq": lambda a, b: bruhat_leq(parse_perm(a), parse_perm(b)),
    "weak_left_leq": lambda a, b: weak_left_leq(parse_perm(a), parse_perm(b)),
    "is_reduced_pair": lambda a, b: is_reduced_pair(parse_perm(a), parse_perm(b)),
    "ess": lambda a: _ess_out(ess_set(sf_from_perm(parse_perm(a)))),
    "inv_count": lambda a: inv_count(parse_perm(a)),
    "reduce": lambda a, b, g: _reduce_out(
        reduce(parse_perm(a), parse_perm(b), parse_perm(g))
    ),
    "roundtrip": lambda a: format_perm(parse_perm(a)),
}


def run_cli(src: str, argv) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_CODE, src, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def run_op(kind: str, args, src: str):
    if kind.startswith("cli."):
        return run_cli(src, args)
    return _PUBLIC[kind](*args)


# ---------------------------------------------------------------------------
# traced: the same work through the public pipeline stages


def _parse(tr, text):
    p = tr.call("grammar.parse_perm", parse_perm, text)
    tr.count("perm.operands", 1)
    tr.count("perm.window_len", len(p.vals))
    tr.count("perm.diff_bound", p.diff_bound)
    return p


def _format(tr, p):
    return tr.call("grammar.format_perm", format_perm, p)


def _kernel_counts(tr, kind, s, t, out) -> None:
    """Work counts of one tropical product, from public slipface fields.

    The kernel runs over rows x reach x columns, where reach adds the second
    factor's band plus two on each side (for tlr the second factor is the
    dual of s).  The no-widen box spans all operand boxes plus one margin
    of lcm(periods) + both bands + 2 on each side; each widen step adds
    another margin per side.
    """
    rows, cols = out.grid.shape
    band2 = s.band if kind == "tlr" else t.band
    tr.count("slipface.kernel_cells", rows * (cols + 2 * (band2 + 2)) * cols)
    tr.count("slipface.result_box_cells", out.grid.size)
    lo = min(s.a_lo, s.b_lo, t.a_lo, t.b_lo)
    hi = max(s.a_hi, s.b_hi, t.a_hi, t.b_hi)
    margin = math.lcm(s.period, t.period) + s.band + t.band + 2
    widen = round((rows - (hi - lo + 1)) / (2 * margin)) - 1
    tr.count("slipface.widen_retries", max(widen, 0))


_SF_PRODUCT = {"star": sf_star, "tll": sf_tll, "tlr": sf_tlr}


def _traced_product(tr, kind, a, b):
    p, q = _parse(tr, a), _parse(tr, b)
    sp = tr.call("slipface.sf_from_perm", sf_from_perm, p)
    sq = tr.call("slipface.sf_from_perm", sf_from_perm, q)
    s = tr.call("slipface.sf_" + kind, _SF_PRODUCT[kind], sp, sq)
    _kernel_counts(tr, kind, sp, sq, s)
    return _format(tr, tr.call("slipface.sf_to_perm", sf_to_perm, s))


def _traced_leq_witness(tr, a, b):
    def leq(p, q):
        sp = tr.call("slipface.sf_from_perm", sf_from_perm, p)
        sq = tr.call("slipface.sf_from_perm", sf_from_perm, q)
        return tr.call("slipface.sf_leq_ess", sf_leq_ess, sp, sq)

    p, q = _parse(tr, a), _parse(tr, b)
    return tr.call("order.bruhat_leq", leq, p, q)


def _traced_ess(tr, a):
    s = tr.call("slipface.sf_from_perm", sf_from_perm, _parse(tr, a))
    return _ess_out(tr.call("slipface.ess_set", ess_set, s))


def _leaf(name, fn, perm_result=False):
    """A public call timed as one span after its operands are parsed."""

    def run(tr, *args):
        r = tr.call(name, fn, *[_parse(tr, a) for a in args])
        return _format(tr, r) if perm_result else r

    return run


def _traced_reduce(tr, a, b, g):
    w = tr.call("demazure.reduce", reduce, _parse(tr, a), _parse(tr, b), _parse(tr, g))
    return (_format(tr, w.alpha1), _format(tr, w.beta1))


_TRACED = {
    "star": lambda tr, a, b: _traced_product(tr, "star", a, b),
    "tll": lambda tr, a, b: _traced_product(tr, "tll", a, b),
    "tlr": lambda tr, a, b: _traced_product(tr, "tlr", a, b),
    "compose": _leaf("perm.compose", compose, perm_result=True),
    "inverse": _leaf("perm.inverse", inverse, perm_result=True),
    "bruhat_leq": lambda tr, a, b: _traced_leq_witness(tr, a, b)[0],
    "weak_left_leq": _leaf("order.weak_left_leq", weak_left_leq),
    "is_reduced_pair": _leaf("demazure.is_reduced_pair", is_reduced_pair),
    "ess": _traced_ess,
    "inv_count": _leaf("perm.inv_count", inv_count),
    "reduce": _traced_reduce,
    "roundtrip": lambda tr, a: _format(tr, _parse(tr, a)),
}


def run_traced(tr, kind: str, args, src: str):
    if kind.startswith("cli."):
        return tr.call("cli.subprocess", run_cli, src, args)
    return _TRACED[kind](tr, *args)


def cli_main_captured(argv) -> tuple[int, str]:
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def cli_reference(tr, argv) -> tuple[int, str]:
    """Expected exit code and stdout of one CLI call, from library calls."""
    verb = argv[0]
    if verb in ("star", "tll"):
        return 0, _traced_product(tr, verb, argv[1], argv[2]) + "\n"
    if verb == "compare":
        ok, wit = _traced_leq_witness(tr, argv[2], argv[3])
        if ok:
            return 0, "true\n"
        return 1, (f"false witness=({wit[0]},{wit[1]})\n" if wit else "false\n")
    if verb == "ess":
        points, periodic, period = _traced_ess(tr, argv[1])
        lines = [f"({a},{b}) value={v}\n" for a, b, v in points]
        if periodic:
            lines.append(f"periodic (repeats with period {period})\n")
        return 0, "".join(lines)
    if verb == "inv":
        p = _parse(tr, argv[1])
        if not is_finitary(p):
            return 0, "infinite\n"
        return 0, f"{tr.call('perm.inv_count', inv_count, p)}\n"
    if verb == "render":
        p = _parse(tr, argv[1])
        s = tr.call("slipface.sf_from_perm", sf_from_perm, p)
        flags = dict(arg[2:].split("=") for arg in argv[2:])
        a_lo, a_hi = (int(v) for v in flags["arange"].split(":"))
        b_lo, b_hi = (int(v) for v in flags["brange"].split(":"))
        spec = RenderSpec(a_lo, a_hi, b_lo, b_hi, flags["format"], "heatmap")
        return 0, tr.call("render.render", render, s, spec)
    if verb == "rankgrid":
        s, t = (
            tr.call("slipface.read_slipface", read_slipface, _read(path))
            for path in argv[2:4]
        )
        g = tr.call("slipface.sf_star", sf_star, s, t)
        _kernel_counts(tr, "star", s, t, g)
        return 0, tr.call("slipface.write_slipface", write_slipface, g)
    raise ValueError(f"no reference for CLI verb {verb!r}")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


_EP = re.compile(r"^ep\(k=(-?\d+), lo=(-?\d+); ([-\d ]+)\)$")


def ep_fields(text: str):
    """(period, lo, vals) of a canonical ep string, or None."""
    m = _EP.match(text.strip()) if isinstance(text, str) else None
    if not m:
        return None
    return int(m[1]), int(m[2]), [int(v) for v in m[3].split()]


def revalidate(text) -> None:
    """The from_window probe: rebuild a result from its window fields."""
    fields = ep_fields(text)
    if fields is not None:
        from_window(*fields)


# ---------------------------------------------------------------------------
# checks


def _sd_size(*ps):
    """Smallest d such that every p permutes [1, d] and fixes the rest."""
    d = 1
    for p in ps:
        if p.period != 1 or p.chi != 0:
            return None
        moved = [n for n in range(p.lo, p.hi + 1) if apply(p, n) != n]
        if moved and min(moved) < 1:
            return None
        d = max([d] + moved)
    return d


def _sigma_members(q):
    """Members n of a disjoint-transposition permutation swapping n, n+1:
    a sorted list when finite, a ResidueClass when periodic with one class,
    None when q is not of that form."""
    k = q.period
    rng = range(q.lo - k - 1, q.hi + k + 2)
    if any(abs(apply(q, n) - n) > 1 for n in rng):
        return None
    if q.chi != 0 or any(apply(q, apply(q, n)) != n for n in rng):
        return None
    members = [n for n in rng if apply(q, n) == n + 1]
    if k == 1:
        return members
    reps = sorted({n % k for n in members})
    if len(reps) != 1:
        return None
    return ResidueClass(reps[0], k)


def _pointwise(r, f, *ps):
    k = math.lcm(*(p.period for p in ps + (r,)))
    m = max(p.diff_bound for p in ps + (r,))
    lo = min(p.lo for p in ps + (r,)) - 2 * k - 2 * m - 2
    hi = max(p.hi for p in ps + (r,)) + 2 * k + 2 * m + 2
    return all(apply(r, n) == f(n) for n in range(lo, hi + 1))


def _brute_inversions(p, q=None):
    """Inversion pairs of p (and membership in q's) over a generous region."""
    ps = (p,) if q is None else (p, q)
    k = math.lcm(*(x.period for x in ps))
    m = max(max(x.diff_bound for x in ps), 1)
    lo = min(x.lo for x in ps) - 2 * k - 4 * m - 4
    hi = max(x.hi for x in ps) + 2 * k + 4
    return [
        (u, v)
        for u in range(lo, hi + 1)
        for v in range(u + 1, u + 3 * m + 1)
        if has_inversion(p, u, v)
    ]


def _check_star(p, q, r):
    if r.chi != p.chi + q.chi:
        return "shift is not additive"
    d = _sd_size(p, q)
    if d is not None and d <= 5:
        return None if r == oracle_greedy_max(p, q, d) else "differs from oracle_greedy_max"
    if d is not None:
        return None if r == oracle_star_sd(p, q, d) else "differs from oracle_star_sd"
    members = _sigma_members(q)
    if isinstance(members, list):
        return None if r == oracle_star_word(p, members) else "differs from oracle_star_word"
    if members is not None:
        return None if r == star_sigma(p, members) else "differs from star_sigma"
    if inverse(r) != star(inverse(q), inverse(p)):
        return "inverse(star(a,b)) != star(inverse(b), inverse(a))"
    return None


def _check_tll(p, q, r):
    if r.chi != p.chi + q.chi:
        return "shift is not additive"
    d = _sd_size(p, q)
    if d is not None and d <= 5:
        want = oracle_stingy_min(p, inverse(q), d)
        return None if r == want else "differs from oracle_stingy_min"
    members = _sigma_members(q)
    if members is not None:
        return None if r == tll_sigma(p, members) else "differs from tll_sigma"
    if not bruhat_leq(p, star(r, inverse(q))):
        return "p <= star(tll(p, q), inverse(q)) fails"
    return None


def _check_tlr(p, q, r):
    if r.chi != p.chi + q.chi:
        return "shift is not additive"
    d = _sd_size(p, q)
    if d is not None and d <= 5:
        want = inverse(oracle_stingy_min(inverse(q), p, d))
        return None if r == want else "differs from oracle_stingy_min"
    if p.period > 1 or q.period > 1:
        if r != inverse(tll(inverse(q), inverse(p))):
            return "tlr(p,q) != inverse(tll(inverse(q), inverse(p)))"
    elif not bruhat_leq(q, star(inverse(p), r)):
        return "q <= star(inverse(p), tlr(p, q)) fails"
    return None


def _check_leq(p, q, out):
    d = _sd_size(p, q)
    if d is not None and d <= 5:
        line = lambda x: tuple(apply(x, i) for i in range(1, d + 1))
        want = sd_leq(line(p), line(q))
    else:
        want = sf_leq_grid(sf_from_perm(p), sf_from_perm(q))[0]
    return None if out == want else "differs from the grid comparator"


def _check_weak(p, q, out):
    want = all(has_inversion(q, u, v) for u, v in _brute_inversions(p, q))
    return None if out == want else "differs from brute inversion containment"


def _check_ess(p, out):
    points, periodic, period = out
    s = lambda a, b: eval_s(p, a, b)
    essential = lambda a, b: (
        s(a, b) > s(a - 1, b)
        and s(a, b) == s(a + 1, b)
        and s(a, b) > s(a, b + 1)
        and s(a, b) == s(a, b - 1)
    )
    for a, b, v in points:
        if not (essential(a, b) and s(a, b) == v):
            return f"({a},{b}) is not an essential point of value {v}"
    if period != p.period:
        return "period flag differs from the permutation's period"
    if p.period == 1:
        # a finitary set is finite: scan well past the window for all of it
        m = p.diff_bound
        r = range(p.lo - 2 * m - 4, p.hi + 2 * m + 5)
        want = {(a, b) for a in r for b in r if essential(a, b)}
        if want != {(a, b) for a, b, _ in points}:
            return "essential set is incomplete"
    return None


def _check_inv(p, out):
    return None if out == len(_brute_inversions(p)) else "differs from brute count"


def _check_reduce(p, q, g, out):
    a1, b1 = (parse_perm(x) for x in out)
    if compose(a1, b1) != g:
        return "compose(alpha1, beta1) != gamma"
    if not (leq_chi(a1, p) and leq_chi(b1, q) and is_reduced_pair(a1, b1)):
        return "reduction certificate fails"
    return None


def check(kind: str, args, out, reference=None, star_out=None):
    """None when `out` is correct, else a one-line reason.

    `star_out` is the checked star(p, q) of the op's group, when it ran.
    """
    if kind.startswith("cli."):
        want = reference(args)
        return None if tuple(out) == want else f"CLI output {out!r} != {want!r}"
    ps = [parse_perm(a) for a in args]
    if kind in ("star", "tll", "tlr", "compose", "inverse", "roundtrip"):
        if not isinstance(out, str) or ep_fields(out) is None:
            return "result is not a canonical ep string"
        r = parse_perm(out)
        if format_perm(r) != out:
            return "result is not canonical"
    if kind == "star":
        return _check_star(*ps, r)
    if kind == "tll":
        return _check_tll(*ps, r)
    if kind == "tlr":
        return _check_tlr(*ps, r)
    if kind == "compose":
        p, q = ps
        return None if _pointwise(r, lambda n: apply(p, apply(q, n)), p, q) else "not p(q(n))"
    if kind == "inverse":
        (p,) = ps
        return None if _pointwise(r, lambda n: _preimage(p, n), p) else "not the inverse"
    if kind == "roundtrip":
        return None if out == args[0] else "round trip changed the text"
    if kind == "bruhat_leq":
        return _check_leq(*ps, out)
    if kind == "weak_left_leq":
        return _check_weak(*ps, out)
    if kind == "is_reduced_pair":
        p, q = ps
        st = parse_perm(star_out) if star_out else star(p, q)
        want = st == compose(p, q)
        return None if out == want else "differs from star == compose"
    if kind == "ess":
        return _check_ess(*ps, out)
    if kind == "inv_count":
        return _check_inv(*ps, out)
    if kind == "reduce":
        return _check_reduce(*ps, out)
    raise ValueError(f"no check for {kind!r}")


def _preimage(p, n):
    m = p.diff_bound
    (x,) = [x for x in range(n - m, n + m + 1) if apply(p, x) == n]
    return x
