"""The greedy product and its stingy adjoints on permutations.

star(a, b) is the unique permutation whose slipface is the min-plus product
of the factors' slipfaces; tll and tlr are the Bruhat-minimal solutions of
the corresponding one-sided inequalities.  ``product_path`` picks the engine
from the operands alone: when both have period 1 all three fold a reduced
word on the windows (``finitary``); when both have equal tails (each follows
one globally periodic germ on both sides) they fold an affine reduced word on
one period, of the lcm of the periods or of a periodization around the
windows; a pair with mixed tails goes through the slipface grid engine and
reconstruction, which ``grid_product`` also exposes for every pair as the
reference.  Generator inputs (disjoint adjacent transpositions) additionally
have direct paths, ``star_sigma`` and ``tll_sigma``, which are kept as an
independent cross-check.

A pair (a, b) is reduced when Inv(a) and Inv(b^-1) are disjoint, exactly
when star(a, b) equals compose(a, b); the test is the inversion scan of
``perm.first_inversion`` with the two masks and-ed, which also yields the
first common inversion as witness.  The reduction machinery turns an
inequality star(a, b) >= g into an exact factorization g = a1 * b1 with
a1, b1 below a, b in the shift-graded order and the pair reduced, returning
certified witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import finitary
from .errors import InternalInconsistency, InvalidGeneratorSet, NotDominated
from .perm import (
    Permutation,
    ResidueClass,
    apply,
    compose,
    first_inversion,
    from_window,
    identity,
    inverse,
    make_sigma_set,
)
from .order import bruhat_leq_witness, leq_chi
from .slipface import sf_from_perm, sf_star, sf_tll, sf_tlr, sf_to_perm

__all__ = [
    "star",
    "tll",
    "tlr",
    "star_sigma",
    "tll_sigma",
    "is_reduced_pair",
    "is_reduced_pair_witness",
    "greedy_witness",
    "stingy_witness",
    "ReductionWitness",
    "ReducedTuple",
    "reduce",
    "reduce_tuple",
    "is_reduced_tuple",
]


_GRID = {"star": sf_star, "tll": sf_tll, "tlr": sf_tlr}
_FOLD = {"star": finitary.star, "tll": finitary.tll, "tlr": finitary.tlr}


def grid_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """star, tll or tlr (by ``kind``) through the slipface grid engine, for
    any periods: the reference the word folds are checked against."""
    return sf_to_perm(_GRID[kind](sf_from_perm(p), sf_from_perm(q)))


def product_path(p: Permutation, q: Permutation) -> str:
    """The engine that computes products of p and q: "finitary" when both
    have period 1, "affine" when both have equal tails, else "grid"."""
    if p.period == 1 and q.period == 1:
        return "finitary"
    if finitary.has_equal_tails(p) and finitary.has_equal_tails(q):
        return "affine"
    return "grid"


def _product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    path = product_path(p, q)
    if path == "finitary":
        r = _FOLD[kind](p, q)
    elif path == "affine":
        r = finitary.affine_product(kind, p, q)
    else:
        r = grid_product(kind, p, q)
    if r.chi != p.chi + q.chi:
        what = "product" if kind == "star" else "adjoint"
        raise InternalInconsistency(f"shift is not additive under the {what}")
    return r


def star(p: Permutation, q: Permutation) -> Permutation:
    """Greedy product: the unique r with s_r = s_p (min-plus) s_q."""
    return _product("star", p, q)


def tll(p: Permutation, q: Permutation) -> Permutation:
    """Stingy left adjoint; tll(p, inverse(q)) = min{r : star(r, q) >= p}."""
    return _product("tll", p, q)


def tlr(p: Permutation, q: Permutation) -> Permutation:
    """Stingy right adjoint; tlr(inverse(p), q) = min{r : star(p, r) >= q}."""
    return _product("tlr", p, q)


# ---------------------------------------------------------------------------
# generator fast paths


def _sigma_of_members(p: Permutation, keep, ref: Permutation) -> Permutation:
    """Build the disjoint-transposition permutation swapping n, n+1 for the
    n where keep(n) holds.  keep must be eventually periodic with period
    dividing ref's period times p's period; the window is sized so both
    tails show a full period and no swap straddles an edge."""
    k = math.lcm(p.period, ref.period)
    lo = min(p.lo, ref.lo) - k - 2
    hi = max(p.hi, ref.hi) + k + 2
    if keep(lo - 1):
        lo -= 1
    if keep(hi):
        hi += 1
    vals = []
    for n in range(lo, hi + 1):
        if keep(n):
            vals.append(n + 1)
        elif keep(n - 1):
            vals.append(n - 1)
        else:
            vals.append(n)
    return from_window(k, lo, vals)


def _split_sigma(p: Permutation, s) -> tuple[Permutation, Permutation]:
    """(sigma_S1, sigma_S2): the ascent part and descent part of sigma_S
    relative to p, where S1 = {n in S : p(n) < p(n+1)}."""
    sig = make_sigma_set(s)  # validates admissibility
    if isinstance(s, ResidueClass):
        member = lambda n: n in s
    else:
        fixed = frozenset(int(n) for n in s)
        member = lambda n: n in fixed

    def asc(n):
        return member(n) and apply(p, n) < apply(p, n + 1)

    def desc(n):
        return member(n) and apply(p, n) > apply(p, n + 1)

    return _sigma_of_members(p, asc, sig), _sigma_of_members(p, desc, sig)


def star_sigma(p: Permutation, s) -> Permutation:
    """star against sigma_S without the grid engine: keep only the ascents.

    s is a finite collection of integers with no two consecutive, or a
    ResidueClass of modulus >= 2.
    """
    s1, _ = _split_sigma(p, s)
    return compose(p, s1)


def tll_sigma(p: Permutation, s) -> Permutation:
    """tll against sigma_S without the grid engine: keep only the descents."""
    _, s2 = _split_sigma(p, s)
    return compose(p, s2)


# ---------------------------------------------------------------------------
# reduced pairs and witnesses


def is_reduced_pair_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    """Whether Inv(p) and Inv(q^-1) are disjoint; the first common inversion
    in (u, v) order if not.  A common inversion has v - u <= 2 * min(diff
    bounds)."""
    qi = inverse(q)
    m = min(p.diff_bound, qi.diff_bound)
    wit = first_inversion((p, qi), m, lambda a, b: a & b)
    return wit is None, wit


def is_reduced_pair(p: Permutation, q: Permutation) -> bool:
    """True when the product pq creates no cancelling inversions, i.e.
    star(p, q) equals compose(p, q)."""
    return is_reduced_pair_witness(p, q)[0]


def greedy_witness(p: Permutation, q: Permutation) -> Permutation:
    """The p1 = star(p,q) q^-1: largest part of p usable against q.

    Certifies p1 <= p in the shift-graded order and (p1, q) reduced, so
    compose(p1, q) = star(p, q).
    """
    p1 = compose(star(p, q), inverse(q))
    if not leq_chi(p1, p):
        raise InternalInconsistency("greedy witness is not below the input")
    if not is_reduced_pair(p1, q):
        raise InternalInconsistency("greedy witness pair is not reduced")
    return p1


def stingy_witness(p: Permutation, q: Permutation) -> Permutation:
    """The q1 <= q with tll(p, inverse(q)) = compose(p, inverse(q1)):
    the part of q that tll actually consumes."""
    q1 = compose(tlr(q, inverse(p)), p)
    if not leq_chi(q1, q):
        raise InternalInconsistency("stingy witness is not below the input")
    if tll(p, inverse(q)) != compose(p, inverse(q1)):
        raise InternalInconsistency("stingy witness does not reproduce tll")
    return q1


# ---------------------------------------------------------------------------
# reduction theorems


@dataclass(frozen=True)
class ReductionWitness:
    alpha1: Permutation
    beta1: Permutation
    gamma: Permutation
    alpha1_leq_chi: bool
    beta1_leq_chi: bool
    reduced: bool
    product_equal: bool


@dataclass(frozen=True)
class ReducedTuple:
    factors: tuple[Permutation, ...]
    suffix_products: tuple[Permutation, ...]


def _require_dominates(p: Permutation, q: Permutation, g: Permutation) -> None:
    st = star(p, q)
    if p.chi + q.chi != g.chi:
        raise NotDominated(
            f"shift mismatch: {p.chi} + {q.chi} != {g.chi}", None
        )
    ok, cell = bruhat_leq_witness(g, st)
    if not ok:
        raise NotDominated("product does not dominate the target", cell)


def reduce(p: Permutation, q: Permutation, g: Permutation) -> ReductionWitness:
    """Split star(p, q) >= g into an exact reduced factorization of g.

    alpha1 = tll(g, inverse(q)) and beta1 = tlr(inverse(alpha1), g) satisfy
    alpha1 <= p, beta1 <= q (shift-graded), the pair is reduced, and
    compose(alpha1, beta1) = g.  All four facts are re-verified on return.
    """
    _require_dominates(p, q, g)
    a1 = tll(g, inverse(q))
    b1 = tlr(inverse(a1), g)
    w = ReductionWitness(
        alpha1=a1,
        beta1=b1,
        gamma=g,
        alpha1_leq_chi=leq_chi(a1, p),
        beta1_leq_chi=leq_chi(b1, q),
        reduced=is_reduced_pair(a1, b1),
        product_equal=compose(a1, b1) == g,
    )
    if not (
        w.alpha1_leq_chi and w.beta1_leq_chi and w.reduced and w.product_equal
    ):
        raise InternalInconsistency(f"reduction certificate failed: {w}")
    return w


def _star_fold(factors: tuple[Permutation, ...]) -> Permutation:
    out = identity()
    for f in reversed(factors):
        out = star(f, out)
    return out


def _suffix_products(factors: tuple[Permutation, ...]) -> tuple[Permutation, ...]:
    out = [identity()]
    for f in reversed(factors[1:]):
        out.append(compose(f, out[-1]))
    return tuple(reversed(out))


def reduce_tuple(factors, g: Permutation) -> ReducedTuple:
    """Factor g as a reduced tuple below the given factors, peeling left to
    right with reduce at each step."""
    factors = tuple(factors)
    if not factors:
        raise InvalidGeneratorSet("cannot reduce an empty tuple of factors")
    out: list[Permutation] = []
    target = g
    rest = factors
    while len(rest) > 1:
        suffix = _star_fold(rest[1:])
        w = reduce(rest[0], suffix, target)
        out.append(w.alpha1)
        target = w.beta1
        rest = rest[1:]
    if target.chi != rest[0].chi or not bruhat_leq_witness(target, rest[0])[0]:
        raise NotDominated("final factor does not dominate the residue", None)
    out.append(target)
    result = ReducedTuple(tuple(out), _suffix_products(tuple(out)))
    for f, pi in zip(result.factors, result.suffix_products):
        if not is_reduced_pair(f, pi):
            raise InternalInconsistency("constructed tuple is not reduced")
    if compose(result.factors[0], result.suffix_products[0]) != g:
        raise InternalInconsistency("constructed tuple misses the target")
    return result


def is_reduced_tuple(factors) -> bool:
    """Each factor reduced against the product of everything after it."""
    factors = tuple(factors)
    if not factors:
        return True
    return all(
        is_reduced_pair(f, pi)
        for f, pi in zip(factors, _suffix_products(factors))
    )
