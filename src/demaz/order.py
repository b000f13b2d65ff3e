"""Bruhat order, shift-graded order, and the two weak orders.

Bruhat comparison is pointwise comparison of the rank functions
s_p(a, b) = #{n >= b : alpha(n) < a}, checked only at the essential cells of
the smaller side (Fulton's essential set; Bjorner-Brenti, Combinatorics of
Coxeter Groups, Thm 8.3.7 for the affine symmetric group).  One sweep of
p's columns reads those cells off the descents of p and counts s_p and s_q
there, each side's values below the column kept as the bits of an integer:
exact counts, with no rank table and no grid arrays.  The least failing
cell so far drops the rows where no later cell can beat it (see
``bruhat_leq_witness``).  Equal sides answer at once.  A period-1 left
side has all of its cells in its window.  Any other is scanned on three
zones (``_zones``): the rows where both sides follow their left germs, one
period deep; the columns where both follow their right germs, one period
wide; and the cells between.  A failing cell of the left zone stands for
its diagonal translates, and moves to the lowest of them on the square
that the grid comparison ``sf_leq_ess`` scans, so verdict and witness cell
are its own.

The weak orders compare inversion sets with the pure-Python sweep of
``perm.first_inversion``, q's images negated: it decides the question
exactly on the certified band that ``perm`` defines, and the first
violating pair in (u, v) order is the witness.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

from .perm import (
    Permutation,
    _check_cells,
    _images,
    _rank_bits,
    first_inversion,
    inverse,
    is_affine,
)

__all__ = [
    "bruhat_leq",
    "bruhat_leq_witness",
    "essential_cells",
    "perm_ess_set",
    "leq_chi",
    "weak_left_leq",
    "weak_left_leq_witness",
    "weak_right_leq",
    "weak_right_leq_witness",
]


class EssPoint(NamedTuple):
    a: int
    b: int
    value: int


class EssSet(NamedTuple):
    points: tuple[EssPoint, ...]
    periodic: bool
    period: int


def perm_box(p: Permutation) -> tuple[int, int, int, int]:
    """sf_from_perm(p).box: the period and band of s_p, and the box
    [c0, c1]^2 that sf_from_perm tabulates."""
    k, m = p.period, p.diff_bound
    band = max(m + 1, abs(p.chi) + 1)
    return k, band, p.lo - m - band - k - 2, p.hi + m + band + k + 2


def scan_region(*boxes: tuple[int, int, int, int]) -> tuple[int, int, tuple[int, int]]:
    """(r0, r1, far) for comparing slipfaces with the given boxes (see
    perm_box): [r0, r1]^2 reaches one common period and one cell past every
    box, and far lies beyond it on the diagonal a - b = d, the largest band,
    where both sides equal max(0, chi + d), so s > t if chi_s > chi_t."""
    k = math.lcm(*(box[0] for box in boxes))
    d = max(box[1] for box in boxes)
    r0 = min(box[2] for box in boxes) - k - 1
    r1 = max(box[3] for box in boxes) + k + 1
    return r0, r1, (r1 + 2 * d + 1, r1 + d + 1)


def _sweep_start(
    p: Permutation, a0: int, a1: int, b0: int, b1: int, *others: Permutation
) -> list | None:
    """After the cell cap, None for an empty rectangle [a0, a1] x [b0, b1],
    else [img, v0, v1, rows] and the (x, c) of ``perm._rank_bits`` for p and
    each of others: img = alpha_p on [b0 - 1, b1], [v0, v1] the values these
    and the rows reach, rows their bits."""
    cells = max(a1 - a0 + 1, 0) * max(b1 - b0 + 1, 0)
    _check_cells(f"essential-cell scan [{a0}..{a1}]x[{b0}..{b1}]", cells)
    if not cells:
        return None
    img = _images(p.period, p.lo, p.vals, b0 - 1, b1)
    v0, v1 = min(a0 - 1, *img), max(a1, *img)
    out = [img, v0, v1, (2 << (a1 - v0)) - (1 << (a0 - v0))]
    for f in (p, *others):
        out += _rank_bits(f, v0, v1, b0)
    return out


def essential_cells(
    p: Permutation, a0: int, a1: int, b0: int, b1: int
) -> list[tuple[int, list[int], list[int]]]:
    """The essential cells of s_p in [a0, a1] x [b0, b1] with their values,
    as (b, rows, s_p at those rows) for each column b that holds some, b and
    rows ascending.

    A cell is essential when s_p(a - 1, b) < s_p(a, b) = s_p(a + 1, b) and
    s_p(a, b + 1) < s_p(a, b) = s_p(a, b - 1) (``slipface.ess_mask``).  The
    four steps are [alpha^-1(a - 1) >= b], [alpha^-1(a) >= b], [alpha(b) <
    a] and [alpha(b - 1) < a], so the cell is essential exactly when alpha(b)
    < a <= alpha(b - 1) and a lies in X_b = {alpha(n) : n < b} while a - 1
    does not.  The sweep keeps X_b on the values [v0, v1] that the rows and
    columns reach as the bits of an integer x (``_sweep_start``), reads each
    descent b - 1 off it in a few integer operations, and counts s_p there
    from the same bits, as alpha carries [b0 - 1, b1] into [v0, v1]."""
    start = _sweep_start(p, a0, a1, b0, b1)
    if start is None:
        return []
    img, v0, _, rows, x, base = start
    out = []
    for b, up, down in zip(range(b0, b1 + 1), img, islice(img, 1, None)):
        up -= v0
        down -= v0
        if up > down:
            m = x & ~(x << 1) & rows & ((2 << up) - (2 << down))
            if m:
                col, values = [], []
                while m:
                    low = m & -m
                    i = low.bit_length() - 1
                    col.append(v0 + i)
                    values.append(base - b + i + (x >> i).bit_count())
                    m ^= low
                out.append((b, col, values))
        x |= 1 << down
    return out


def _region(p: Permutation, lo: int, hi: int) -> tuple[int, int, int, int]:
    """Rows and columns that hold every essential cell of s_p in [lo, hi]^2,
    a square around p's window: for period 1 only the window, since b and
    b - 1 cannot both lie off it, nor a and a - 1 both off its image
    [lo - chi, hi - chi], because alpha is the shift n -> n - chi off it."""
    if p.period == 1:
        return p.lo - p.chi + 1, p.hi - p.chi, p.lo + 1, p.hi
    return lo, hi, lo, hi


def perm_ess_set(p: Permutation) -> EssSet:
    """ess_set(sf_from_perm(p)) without the grid: the essential points in
    the box of perm_box plus one period beyond each end, flagged periodic
    when one lies outside the box."""
    k, _, c0, c1 = perm_box(p)
    columns = essential_cells(p, *_region(p, c0 - k, c1 + k))
    points = sorted(
        EssPoint(a, b, v) for b, rows, values in columns for a, v in zip(rows, values)
    )
    periodic = any(not (c0 <= a <= c1 and c0 <= b <= c1) for a, b, _ in points)
    return EssSet(tuple(points), periodic, k)


def _displacements(p: Permutation) -> tuple[int, int]:
    """The least and the largest alpha(n) - n over all n: the tails repeat
    the displacements of the window's end periods."""
    d = list(map(int.__sub__, p.vals, range(p.lo, p.hi + 1)))
    return min(d), max(d)


def _zones(
    p: Permutation, q: Permutation
) -> tuple[int, int, int, int, int, int]:
    """(a0, a1, b0, b1, top, K): a rectangle [a0, a1] x [b0, b1] whose
    failing cells, those with a <= top moved by multiples of K, include the
    first failing essential cell of s_p in (a, b) order on any square
    [r0, r1]^2 that reaches past both windows by their diff bounds and K.

    With K the lcm of the periods, f in {p, q}, A_f and B_f its left and
    right germs (the first and last period of its window, repeated, so of
    period dividing K) and [mu_f, nu_f] its displacements alpha(n) - n:

    - Left zone.  For a <= lo_f + k_f + mu_f, s_f(a, b) = s_{A_f}(a, b) for
      every b: f and A_f agree below lo_f + k_f, and from there on both
      map n to at least n + mu_f >= a, so neither counts such an n.  The
      essential test of p reads s_p on rows a - 1 .. a + 1 and the
      comparison s_q on row a, so on rows a <= top = min_f(lo_f + k_f +
      mu_f) - 1 a cell is essential and failing exactly when it is for the
      germs, whose rank functions repeat along the diagonal with period K:
      s_A(a + K, b + K) = s_A(a, b).
    - Right zone.  For b >= hi_f - k_f + 1, s_f(a, b) = s_{B_f}(a, b) for
      every a, since only n >= b count; the test reads columns b - 1 .. b +
      1, so from b >= bottom = max_f(hi_f - k_f) + 2 on the outcome repeats
      with period K as well.
    - A globally periodic f is its own germ on every cell, so it bounds
      neither zone, and its window, which could sit anywhere, does not
      count in top or bottom.
    - An essential cell has alpha(b) < a <= alpha(b - 1), so mu_p + 1 <= a -
      b <= nu_p - 1.

    Take the first failing cell g = (a, b) of the square.  If a <= top, one
    translate g + jK, j >= 0, has its row in [top - K + 1, top], so its
    column in [top - K + 2 - nu_p, top - mu_p - 1]: the rectangle holds it,
    and g is the lowest of its translates on the square.  If a > top and b
    >= bottom, g - K would be a failing cell of the square too unless b <
    bottom + K, so g has a column in [bottom, bottom + K - 1] and a row up
    to bottom + K + nu_p - 2.  If a > top and b < bottom, its row is at most
    bottom + nu_p - 2 and its column above top + 1 - nu_p.  The rectangle
    covers these three cases.  Its rows lie on the square (top - K
    exceeds r0 and top stays below r1, by the reach of the square), so
    cutting them at r1 loses nothing, nor does cutting the columns at r0,
    since a translate g + jK lies no lower than g.  Its columns can pass
    r1, when p's displacements reach further than the other side's box:
    a left-zone cell there moves back onto the square, and a cell of the
    other cases is not on it, so it is dropped.  Then the least of the
    moved failing cells is g.  When both sides are globally
    periodic, every row is in the left zone and rows [top - K + 1, top],
    one period at p's window, are enough.

    The bounds follow the windows and the displacements, not the diff
    bounds: the rectangle is about 2K plus the span of the windows plus
    twice p's displacement range on a side, and a shift composed with both
    sides, on the left or on the right, moves it without growing it."""
    k = math.lcm(p.period, q.period)
    mu, nu = _displacements(p)
    sides = [f for f in (p, q) if not is_affine(f)]
    top = min(f.lo + f.period + _displacements(f)[0] for f in sides or [p]) - 1
    if sides:
        bottom = max(f.hi - f.period for f in sides) + 2
        a1, b1 = max(top, bottom + k + nu - 2), max(top - mu - 1, bottom + k - 1)
    else:
        a1, b1 = top, top - mu - 1
    a0 = top - k + 1
    return a0, a1, a0 - nu + 1, b1, top, k


def bruhat_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    """Whether s_p <= s_q, with the first failing essential cell of s_p in
    (a, b) order on the square [r0, r1]^2 of ``scan_region``: the same
    verdict and cell as the grid comparison ``sf_leq_ess``.

    p == q holds at once.  A period-1 p is scanned on its window, which
    holds all of its essential cells.  Any other p is scanned on the
    rectangle of ``_zones``, its rows and its first column on the square;
    each failing cell with a <= top moves down the diagonal by the multiple
    of K that gives its first translate with both coordinates >= r0, a
    failing cell still past column r1 is dropped, and the least cell left,
    moved or not, is the witness.

    The sweep counts q's values below column b on [v0, v1] as bits and those
    above as a number, so nothing is sized by q's values.  A failing cell
    that does not move (a > top, or period 1) is beaten by no later cell on
    its row or above: they and the rest of its column go.  A moved cell lies
    below every unmoved one, so the rows above top go, but none <= top: a
    move can reverse the order of two cells."""
    if p == q:
        return True, None
    r0, r1, far = scan_region(perm_box(p), perm_box(q))
    if p.chi > q.chi:
        return False, far
    if p.period == 1:
        a0, a1, b0, b1 = _region(p, r0, r1)
        top, k = a0 - 1, 1
    else:
        a0, a1, b0, b1, top, k = _zones(p, q)
        a0, a1, b0 = max(a0, r0), min(a1, r1), max(b0, r0)
    start = _sweep_start(p, a0, a1, b0, b1, q)
    if start is None:
        return True, None
    img, v0, v1, rows, x, cp, y, cq = start
    qimg = _images(q.period, q.lo, q.vals, b0, b1)
    best = None
    for b, up, down, w in zip(range(b0, b1 + 1), img, islice(img, 1, None), qimg):
        up -= v0
        down -= v0
        m = x & ~(x << 1) & rows & ((2 << up) - (2 << down)) if up > down else 0
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            # s_p > s_q at (v0 + i, b): both sides' - b + i cancel
            if cp + (x >> i).bit_count() <= cq + (y >> i).bit_count():
                continue
            a = v0 + i
            if a > top:
                if b <= r1:
                    best, rows = (a, b), rows & (low - 1)
                break
            j = (min(a, b) - r0) // k * k
            if best is None or (a - j, b - j) < best:
                best = (a - j, b - j)
                # the cells left above top in this column cannot beat it
                rows &= (2 << (top - v0)) - 1
                m &= rows
        if not rows:
            break
        x |= 1 << down
        if v0 <= w <= v1:
            y |= 1 << (w - v0)
        elif w > v1:
            cq += 1
    return best is None, best


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
    wit = first_inversion(p, q, m, -1)
    return wit is None, wit


def weak_left_leq(p: Permutation, q: Permutation) -> bool:
    return weak_left_leq_witness(p, q)[0]


def weak_right_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    return weak_left_leq_witness(inverse(p), inverse(q))


def weak_right_leq(p: Permutation, q: Permutation) -> bool:
    return weak_right_leq_witness(p, q)[0]
