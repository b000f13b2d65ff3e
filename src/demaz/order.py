"""Bruhat order, shift-graded order, and the two weak orders.

Bruhat comparison is pointwise comparison of the rank functions
s_p(a, b) = #{n >= b : alpha(n) < a}, checked only at the essential cells of
the smaller side, on tables from ``slipface.rank_table`` for every period.
When both sides have period 1 the tables cover the left side's window, which
holds all of its essential cells; otherwise they cover the square that the
grid comparison ``sf_leq_ess`` scans, so verdict and witness cell are its own.

The weak orders compare inversion sets with the one inversion scan of
``perm.first_inversion``: it decides the question exactly on the certified
band that ``perm`` defines, and the first violating pair in (u, v) order is
the witness.
"""

from __future__ import annotations

from .perm import Permutation, first_inversion, inverse
from .slipface import leq_at_ess, perm_box, rank_table, scan_region

__all__ = [
    "bruhat_leq",
    "bruhat_leq_witness",
    "leq_chi",
    "weak_left_leq",
    "weak_left_leq_witness",
    "weak_right_leq",
    "weak_right_leq_witness",
]


def bruhat_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    """Whether s_p <= s_q, with the first failing essential cell of s_p in
    (a, b) order; the same verdict and cell as the grid comparison."""
    r0, r1, far = scan_region(perm_box(p), perm_box(q))
    if p.chi > q.chi:
        return False, far
    a0, a1, b0, b1 = r0, r1, r0, r1
    if p.period == q.period == 1:
        # an essential cell (a, b) has alpha(b) < a <= alpha(b-1) and
        # alpha^-1(a) < b <= alpha^-1(a-1), so b and b-1 cannot both lie off
        # the window, nor a and a-1 both off its image [lo - chi, hi - chi]
        a0, a1 = p.lo - p.chi + 1, p.hi - p.chi
        b0, b1 = p.lo + 1, p.hi
        if a0 > a1 or b0 > b1:
            return True, None
    s = rank_table(p, a0 - 1, a1 + 1, b0 - 1, b1 + 1)
    return leq_at_ess(s, rank_table(q, a0, a1, b0, b1), a0, b0)


def bruhat_leq(p: Permutation, q: Permutation) -> bool:
    """Whether s_p <= s_q pointwise on Z^2."""
    return bruhat_leq_witness(p, q)[0]


def leq_chi(p: Permutation, q: Permutation) -> bool:
    """Bruhat comparison within a single shift grade."""
    return p.chi == q.chi and bruhat_leq(p, q)


def weak_left_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    """Inv(p) contained in Inv(q), with the first violating pair (u, v) in
    (u, v) order when false."""
    m = max(p.diff_bound, q.diff_bound)
    wit = first_inversion((p, q), m, lambda a, b: a & ~b)
    return wit is None, wit


def weak_left_leq(p: Permutation, q: Permutation) -> bool:
    return weak_left_leq_witness(p, q)[0]


def weak_right_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    return weak_left_leq_witness(inverse(p), inverse(q))


def weak_right_leq(p: Permutation, q: Permutation) -> bool:
    return weak_right_leq_witness(p, q)[0]
