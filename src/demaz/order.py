"""Bruhat order, shift-graded order, and the two weak orders.

Bruhat comparison is pointwise comparison of the rank-counting slipfaces,
accelerated by checking only essential points of the smaller side.  When both
sides have period 1 the finitary engine reads the two rank tables on the left
side's window; otherwise the slipface grids are compared.  Both report the
same verdict and witness cell.

The weak orders compare inversion sets; those are decided exactly on a finite
certified band, because every inversion (u, v) of alpha satisfies
v - u <= 2 * diff_bound(alpha) and inversion sets of eventually periodic
permutations repeat diagonally in the deep tails.
"""

from __future__ import annotations

import math

from . import finitary
from .perm import Permutation, has_inversion, inverse
from .slipface import sf_from_perm, sf_leq_ess

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
    """Bruhat comparison with a violating cell (a, b) when it fails."""
    if p.period == 1 and q.period == 1:
        return finitary.bruhat_leq_witness(p, q)
    return sf_leq_ess(sf_from_perm(p), sf_from_perm(q))


def bruhat_leq(p: Permutation, q: Permutation) -> bool:
    """Whether s_p <= s_q pointwise on Z^2."""
    return bruhat_leq_witness(p, q)[0]


def leq_chi(p: Permutation, q: Permutation) -> bool:
    """Bruhat comparison within a single shift grade."""
    return p.chi == q.chi and bruhat_leq(p, q)


def _weak_region(p: Permutation, q: Permutation) -> tuple[int, int, int]:
    # u sweeps both windows plus one common period on each side; any
    # inversion of either side fits in v - u <= 2 * max(diff_bound)
    k = math.lcm(p.period, q.period)
    m = max(p.diff_bound, q.diff_bound, 1)
    u_lo = min(p.lo, q.lo) - k - 2 * m - 2
    u_hi = max(p.hi, q.hi) + k + 2
    return u_lo, u_hi, 2 * m


def weak_left_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    """Inv(p) contained in Inv(q), with a violating pair (u, v) when false."""
    u_lo, u_hi, span = _weak_region(p, q)
    for u in range(u_lo, u_hi + 1):
        for v in range(u + 1, u + span + 1):
            if has_inversion(p, u, v) and not has_inversion(q, u, v):
                return False, (u, v)
    return True, None


def weak_left_leq(p: Permutation, q: Permutation) -> bool:
    return weak_left_leq_witness(p, q)[0]


def weak_right_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    return weak_left_leq_witness(inverse(p), inverse(q))


def weak_right_leq(p: Permutation, q: Permutation) -> bool:
    return weak_right_leq_witness(p, q)[0]
