"""The finitary engine: products and Bruhat comparison of period-1 permutations
on their windows, without slipface grids.

A period-1 permutation is T w, where T is the translation n -> n - chi (a
length-0 element) and w moves finitely many integers.  Length-0 elements pass
through the Demazure product, so

    star(T w, T' v) = T T' star(T'^-1 w T', v),

and the same holds for tll.  On finite support the Demazure product is the
0-Hecke product: star(x, v) folds a reduced word s_j1 s_j2 ... of v into x
from the right, swapping positions j, j+1 of the running result only where it
ascends; tll folds the same word and swaps only where it descends.  tlr is the
mirror image, tlr(p, q) = inverse(tll(inverse(q), inverse(p))), done on the
arrays.  The word is the sequence of adjacent swaps that insertion sort makes
on v^-1, so the fold costs O(N + l(v)) list steps on a window of N entries.

Bruhat comparison reads the rank tables of both sides on the region that holds
every essential cell of the left side, which is the size of its window.

Each fold certifies itself: its word has exactly l(v) letters and the result
has length l(x) plus (star) or minus (tll) the letters kept, all lengths
counted independently in O(N log N); the result then passes ``from_window``
validation.  The slipface grid engine computes the same functions for every
period and is the reference these paths are tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInconsistency, ResourceLimit
from .perm import Permutation, from_window, get_max_window
from .perm import _inversions, _relative_images
from .slipface import _GRID_CELL_CAP, ess_mask, perm_box

__all__ = ["star", "tll", "tlr", "bruhat_leq_witness"]

# (lo, vals, chi): alpha(lo + i) = vals[i], and alpha(n) = n - chi off the window
_Window = tuple[int, list[int], int]


def _window(p: Permutation) -> _Window:
    if p.period != 1:
        raise ValueError(f"the finitary engine needs period 1, got {p!r}")
    return p.lo, list(p.vals), p.chi


def _at(f: _Window, n: int) -> int:
    lo, vals, chi = f
    i = n - lo
    return vals[i] if 0 <= i < len(vals) else n - chi


def _inverse(f: _Window) -> _Window:
    # alpha carries [lo, hi] onto [lo - chi, hi - chi]
    lo, vals, chi = f
    out = [0] * len(vals)
    for i, v in enumerate(vals):
        out[v - lo + chi] = lo + i
    return lo - chi, out, -chi


def _fold(x: _Window, v: _Window, ascents: bool) -> _Window:
    """star(x, v) when ascents, else tll(x, v)."""
    xlo, xvals, xchi = x
    vlo, vvals, vchi = v
    lo = min(xlo + vchi, vlo)
    hi = max(xlo + len(xvals) - 1 + vchi, vlo + len(vvals) - 1)
    if hi - lo + 1 > get_max_window():
        raise ResourceLimit(
            f"fold window of {hi - lo + 1} entries exceeds cap {get_max_window()}"
        )
    # T_x T_v w' on [lo, hi], with w' = T_v^-1 w T_v; the constant offset
    # T_x T_v changes no comparison, so the fold runs on it directly
    arr = [_at(x, n - vchi) for n in range(lo, hi + 1)]
    before = _inversions(arr)
    # u = (T_v^-1 v)^-1 on [lo, hi], zero-based; insertion sort brings it to
    # the identity by swaps at j1, j2, ..., so T_v^-1 v = s_j1 s_j2 ...
    u = [0] * len(arr)
    for n in range(lo, hi + 1):
        u[_at(v, n) + vchi - lo] = n - lo
    letters = kept = 0
    for i in range(1, len(u)):
        moving, j = u[i], i
        while j and u[j - 1] > moving:
            u[j] = u[j - 1]
            j -= 1
            letters += 1
            a, b = arr[j], arr[j + 1]
            if (a < b) == ascents:
                arr[j], arr[j + 1] = b, a
                kept += 1
        u[j] = moving
    length = _inversions(vvals)
    if letters != length:
        raise InternalInconsistency(
            f"fold word has {letters} letters, the operand has length {length}"
        )
    after = _inversions(arr)
    if after != (before + kept if ascents else before - kept):
        raise InternalInconsistency(
            f"fold kept {kept} letters but the length went {before} -> {after}"
        )
    return lo, arr, xchi + vchi


def _perm(f: _Window) -> Permutation:
    # pad one fixed cell on each side so the tail rule extends from the ends
    lo, vals, chi = f
    hi = lo + len(vals) - 1
    return from_window(1, lo - 1, [lo - 1 - chi, *vals, hi + 1 - chi])


def star(p: Permutation, q: Permutation) -> Permutation:
    """Greedy product of two period-1 permutations."""
    return _perm(_fold(_window(p), _window(q), ascents=True))


def tll(p: Permutation, q: Permutation) -> Permutation:
    """Stingy left adjoint of two period-1 permutations."""
    return _perm(_fold(_window(p), _window(q), ascents=False))


def tlr(p: Permutation, q: Permutation) -> Permutation:
    """Stingy right adjoint of two period-1 permutations."""
    x, v = _inverse(_window(q)), _inverse(_window(p))
    return _perm(_inverse(_fold(x, v, ascents=False)))


# ---------------------------------------------------------------------------
# Bruhat comparison


def _rank_table(p: Permutation, a0: int, a1: int, b0: int, b1: int) -> np.ndarray:
    """s_p(a, b) = #{n >= b : alpha(n) < a} on [a0, a1] x [b0, b1]."""
    cells = (a1 - a0 + 1) * (b1 - b0 + 1)
    if cells > _GRID_CELL_CAP:
        raise ResourceLimit(f"rank table of {cells} cells exceeds grid cap")
    a = np.arange(a0, a1 + 1, dtype=np.int64)
    below = b0 + _relative_images(p, b0, b1)[None, :] < a[:, None]
    counts = np.cumsum(below[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
    # n > b1: off the window alpha(n) = n - chi < a exactly when n <= top,
    # counted in closed form; the window's values by sorted search
    w0, w1 = max(b1 + 1, p.lo), p.hi
    top = a + p.chi - 1
    off = np.maximum(0, top - b1) - np.maximum(0, np.minimum(top, w1) - w0 + 1)
    inside = np.sort(w0 + _relative_images(p, w0, w1))
    tail = off + np.searchsorted(inside, a, side="left")
    return counts + tail[:, None]


def _far_witness(p: Permutation, q: Permutation) -> tuple[int, int]:
    # the cell the grid comparison reports when chi_p > chi_q: beyond both
    # tabulated boxes (plus one period and one cell) and both bands
    (band_p, _, hi_p), (band_q, _, hi_q) = perm_box(p), perm_box(q)
    d = max(band_p, band_q)
    b = max(hi_p, hi_q) + 2 + d + 1
    return b + d, b


def bruhat_leq_witness(
    p: Permutation, q: Permutation
) -> tuple[bool, tuple[int, int] | None]:
    """Whether s_p <= s_q, with the first failing essential cell of s_p in
    (a, b) order; the same verdict and cell as the grid comparison."""
    if p.chi > q.chi:
        return False, _far_witness(p, q)
    # an essential cell (a, b) has alpha(b) < a <= alpha(b-1) and
    # alpha^-1(a) < b <= alpha^-1(a-1), so b and b-1 cannot both lie off the
    # window, nor a and a-1 both off its image [lo - chi, hi - chi]
    a0, a1 = p.lo - p.chi + 1, p.hi - p.chi
    b0, b1 = p.lo + 1, p.hi
    if a0 > a1 or b0 > b1:
        return True, None
    s = _rank_table(p, a0 - 1, a1 + 1, b0 - 1, b1 + 1)
    t = _rank_table(q, a0, a1, b0, b1)
    bad = ess_mask(s) & (s[1:-1, 1:-1] > t)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return False, (a0 + int(i), b0 + int(j))
    return True, None
