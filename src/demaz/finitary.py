"""The word-fold engine: products of period-1 and of globally periodic
permutations without slipface grids.

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

A globally periodic (affine) permutation satisfies alpha(n + K) = alpha(n) + K
for every n; with K the lcm of both periods, a pair of them is T v' with v'
in the affine symmetric group of K-periodic permutations of shift 0, whose
simple reflections s_0 ... s_{K-1} swap n, n + 1 in every period (s_{K-1}
swaps K - 1 and K).  The same factoring gives star(x, T v') = star(x T, v'),
and the fold runs on one period of K entries: the word sorts one period of
v'^-1 at its affine descents, O(K + l(v')) steps.

Each fold certifies itself: its word has exactly l(v) letters and the result
has length l(x) plus (star) or minus (tll) the letters kept, all lengths
counted independently (a Fenwick count in O(N log N) for period 1, Shi's
formula in O(K^2) for affine operands); the result then passes
``from_window`` validation.  Size caps are checked before any folding.  The
slipface grid engine computes the same functions for every period and is the
reference these paths are tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalInconsistency, ResourceLimit
from .perm import Permutation, apply, from_window, get_max_window
from .perm import _inversions, _raw_chi, _tail_apply
from .slipface import _GRID_CELL_CAP

__all__ = [
    "star",
    "tll",
    "tlr",
    "is_affine",
    "affine_star",
    "affine_tll",
    "affine_tlr",
]

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
# affine products


def is_affine(p: Permutation) -> bool:
    """Whether alpha(n + k) = alpha(n) + k for every n, k the period: the
    window repeats with its period, and the tail rule carries that on."""
    k, v = p.period, p.vals
    return all(v[i + k] == v[i] + k for i in range(len(v) - k))


def _period(p: Permutation, k: int) -> list[int]:
    return [apply(p, n) for n in range(k)]


def _period_inverse(vals: list[int]) -> list[int]:
    # alpha(i) = r + k t with r in [0, k) gives alpha^-1(r) = i - k t
    k = len(vals)
    out = [0] * k
    for i, v in enumerate(vals):
        out[v % k] = i - v + v % k
    return out


def _next(vals: list[int], j: int) -> int:
    # alpha(j + 1) for j in [0, k); position k holds alpha(0) + k
    return vals[j + 1] if j + 1 < len(vals) else vals[0] + len(vals)


def _swap(vals: list[int], j: int) -> None:
    """Right multiplication by s_j: swap alpha(j) and alpha(j + 1) in every
    period; s_{k-1} swaps positions k - 1 and k, which is 0 plus k."""
    k = len(vals)
    if j + 1 < k:
        vals[j], vals[j + 1] = vals[j + 1], vals[j]
    else:
        vals[0], vals[j] = vals[j] - k, vals[0] + k


def _affine_length(vals: list[int]) -> int:
    """Length of the k-periodic permutation with period vals, by Shi's
    formula: the sum over 0 <= i < j < k of |floor((w(j) - w(i)) / k)|."""
    k = len(vals)
    w = np.array([v - vals[0] for v in vals], dtype=np.int64)
    rows = max(1, 2**20 // k)
    total = 0
    for i0 in range(0, k, rows):
        d = np.abs((w[None, :] - w[i0 : i0 + rows, None]) // k)
        total += int(np.triu(d, i0 + 1).sum())
    return total


def _affine_word(u: list[int], limit: int) -> list[int]:
    """Sort u, of shift 0, to the identity by swaps at its descents; the
    swaps j1, j2, ... spell u^-1 = s_j1 s_j2 ..., a reduced word.  Stops
    after limit + 1 letters, more than l(u) when limit is l(u).

    A swap at j changes only whether j - 1 and j + 1 are descents, so they
    are the only positions to look at again: O(k + l(u)) steps.
    """
    k = len(u)
    word: list[int] = []
    todo = list(range(k))
    while todo and len(word) <= limit:
        j = todo.pop()
        if u[j] > _next(u, j):
            _swap(u, j)
            word.append(j)
            todo += ((j - 1) % k, (j + 1) % k)
    return word


def _fold_word(arr: list[int], word: list[int], ascents: bool) -> int:
    """Fold word into arr from the right, swapping where arr ascends (star)
    or descends (tll); returns the number of letters kept."""
    kept = 0
    for j in word:
        if (arr[j] < _next(arr, j)) == ascents:
            _swap(arr, j)
            kept += 1
    return kept


def _affine_fold(x: list[int], v: list[int], ascents: bool) -> list[int]:
    """One period of star(x, v) when ascents, else of tll(x, v), for one
    period [0, k) of two k-periodic permutations."""
    k = len(x)
    # v = T v' with T: n -> n - c length 0 and v' of shift 0, so
    # star(x, v) = star(x T, v'), and the same for tll
    c = _raw_chi(k, 0, v)
    v1 = [a + c for a in v]
    m = max(abs(a - i) for i, a in enumerate(v1))
    # the word has at most 2km letters (an inversion (i, n) of v' has
    # n - i < 2m), and Shi's formula takes k^2 steps
    work = k * max(k, 2 * m)
    if work > _GRID_CELL_CAP:
        raise ResourceLimit(
            f"affine fold of period {k} and diff_bound {m} ({work} steps) "
            "exceeds grid cap"
        )
    arr = [_tail_apply(k, 0, x, n - c) for n in range(k)]
    length = _affine_length(v1)
    word = _affine_word(_period_inverse(v1), length)
    if len(word) != length:
        raise InternalInconsistency(
            f"affine fold word has {len(word)} letters, the operand has "
            f"length {length}"
        )
    before = _affine_length(arr)
    kept = _fold_word(arr, word, ascents)
    after = _affine_length(arr)
    if after != (before + kept if ascents else before - kept):
        raise InternalInconsistency(
            f"affine fold kept {kept} letters but the length went "
            f"{before} -> {after}"
        )
    return arr


def _affine_operands(p: Permutation, q: Permutation) -> tuple[list[int], list[int]]:
    for f in (p, q):
        if not is_affine(f):
            raise ValueError(f"the affine fold needs periodic operands, got {f!r}")
    k = math.lcm(p.period, q.period)
    if k > get_max_window():
        raise ResourceLimit(
            f"affine period {k} exceeds window cap {get_max_window()}"
        )
    return _period(p, k), _period(q, k)


def affine_star(p: Permutation, q: Permutation) -> Permutation:
    """Greedy product of two globally periodic permutations."""
    x, v = _affine_operands(p, q)
    return from_window(len(x), 0, _affine_fold(x, v, ascents=True))


def affine_tll(p: Permutation, q: Permutation) -> Permutation:
    """Stingy left adjoint of two globally periodic permutations."""
    x, v = _affine_operands(p, q)
    return from_window(len(x), 0, _affine_fold(x, v, ascents=False))


def affine_tlr(p: Permutation, q: Permutation) -> Permutation:
    """Stingy right adjoint of two globally periodic permutations."""
    x, v = _affine_operands(p, q)
    r = _affine_fold(_period_inverse(v), _period_inverse(x), ascents=False)
    return from_window(len(x), 0, _period_inverse(r))
