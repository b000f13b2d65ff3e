"""The greedy product and its stingy adjoints on permutations.

star(a, b) is the unique permutation whose slipface is the min-plus product
of the factors' slipfaces; tll and tlr are the Bruhat-minimal solutions of
the corresponding one-sided inequalities.  All three fold an affine
reduced word on one period (``finitary.affine_product``) for every pair,
by one of two routes:

- finitary factor, when the operand whose word is folded has period 1
  (the right one for star and tll, the left one for tlr, either for
  star): a fold on that operand's own window, the other operand's values
  there relabelled by rank, whatever its period and tails;
- germs and a finitary middle, for the other pairs (tll with a period-1
  left operand, tlr with a period-1 right one, and pairs of period > 1):
  the products of the operands' germs on one period of the lcm of the
  periods, which alone serve two globally periodic operands, and one fold
  of the operands truncated to finitary permutations around the windows.

The slipface grid engine and reconstruction, ``grid_product``, computes
every pair too, as the reference.

A pair (a, b) is reduced when Inv(a) and Inv(b^-1) are disjoint, exactly
when star(a, b) equals compose(a, b); ``perm.first_inversion`` sweeps for
a common inversion of a and b^-1 and yields the first in (u, v) order as
witness.  The reduction machinery turns an
inequality star(a, b) >= g into an exact factorization g = a1 * b1 with
a1, b1 below a, b in the shift-graded order and the pair reduced, returning
certified witnesses.
"""

from __future__ import annotations

from typing import NamedTuple

from . import finitary
from .errors import InternalInconsistency, InvalidGeneratorSet, NotDominated
from .perm import (
    Permutation,
    compose,
    first_inversion,
    from_window,
    identity,
    inverse,
    is_affine,
)
from .order import bruhat_leq_witness, leq_chi

__all__ = [
    "star",
    "tll",
    "tlr",
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


def grid_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """star, tll or tlr (by ``kind``) through the slipface grid engine, for
    any periods: the reference the word folds are checked against.  The
    shifts are factored out first, p = T_u p' and q = q' T_w with u =
    chi_p, w = chi_q and T_chi: n -> n - chi, and kind(p, q) = T_u kind(p',
    q') T_w (step 0 of ``finitary.affine_product``), so the grids do not
    grow with |chi|.  The factors are then conjugated by the translation
    n -> n - c that brings the least window start c of those not globally
    periodic to 0, and the result back: conjugation by a translation maps
    simple reflections to simple reflections, so it commutes with all
    three kinds, and the grids do not span the gap between a window far
    from 0 and a globally periodic operand's, which sits at 0."""
    from . import slipface

    grid = {"star": slipface.sf_star, "tll": slipface.sf_tll, "tlr": slipface.sf_tlr}
    u, w = p.chi, q.chi
    c = min((f.lo - s for f, s in ((p, 0), (q, w)) if not is_affine(f)), default=0)
    # n -> p(n + c) + u - c and n -> q(n + c + w) - c
    p0 = from_window(p.period, p.lo - c, [v + u - c for v in p.vals])
    q0 = from_window(q.period, q.lo - c - w, [v - c for v in q.vals])
    s0, t0 = slipface.sf_from_perm(p0), slipface.sf_from_perm(q0)
    r = slipface.sf_to_perm(grid[kind](s0, t0))
    return from_window(r.period, r.lo + c + w, [v + c - u for v in r.vals])


def _product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    r = finitary.affine_product(kind, p, q)
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
# reduced pairs and witnesses


def is_reduced_pair_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    """Whether Inv(p) and Inv(q^-1) are disjoint; the first common inversion
    in (u, v) order if not.  A common inversion has v - u <= 2 * min(diff
    bounds)."""
    qi = inverse(q)
    m = min(p.diff_bound, qi.diff_bound)
    wit = first_inversion(p, qi, m, 1)
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


class ReductionWitness(NamedTuple):
    alpha1: Permutation
    beta1: Permutation
    gamma: Permutation
    alpha1_leq_chi: bool
    beta1_leq_chi: bool
    reduced: bool
    product_equal: bool


class ReducedTuple(NamedTuple):
    factors: tuple[Permutation, ...]
    suffix_products: tuple[Permutation, ...]


def reduce(p: Permutation, q: Permutation, g: Permutation) -> ReductionWitness:
    """Split star(p, q) >= g into an exact reduced factorization of g.

    alpha1 = tll(g, inverse(q)) and beta1 = tlr(inverse(alpha1), g) satisfy
    alpha1 <= p, beta1 <= q (shift-graded), the pair is reduced, and
    compose(alpha1, beta1) = g.  All four facts are verified before return,
    and together they show that star(p, q) dominates g: a reduced pair
    multiplies to its Demazure product, so g = star(alpha1, beta1), and the
    Demazure product is monotone in both operands.  So star(p, q) is built
    only when the certificate fails: a cell where it does not dominate g
    raises ``NotDominated``, and no such cell ``InternalInconsistency``.
    """
    if p.chi + q.chi != g.chi:
        raise NotDominated(f"shift mismatch: {p.chi} + {q.chi} != {g.chi}", None)
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
        ok, cell = bruhat_leq_witness(g, star(p, q))
        if not ok:
            raise NotDominated("product does not dominate the target", cell)
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
