"""Bruhat order, shift-graded order, and the two weak orders.

Bruhat comparison is pointwise comparison of the rank-counting slipfaces,
accelerated by checking only essential points of the smaller side.  When both
sides have period 1 the finitary engine reads the two rank tables on the left
side's window; otherwise the slipface grids are compared.  Both report the
same verdict and witness cell.

The weak orders compare inversion sets with the one inversion scan of
``perm.first_inversion``: it decides the question exactly on the certified
band that ``perm`` defines, and the first violating pair in (u, v) order is
the witness.
"""

from __future__ import annotations

from . import finitary
from .perm import Permutation, first_inversion, inverse
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
