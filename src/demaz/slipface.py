"""Slipface functions: the rank-counting surfaces attached to permutations.

A slipface is a function s: Z^2 -> N that decreases by 0 or 1 in its second
argument, increases by 0 or 1 in its first, dominates max{0, chi + a - b},
and agrees with that asymptote far from the diagonal.  The slipface of a
permutation alpha is s(a, b) = #{n >= b : alpha(n) < a}; such slipfaces are
exactly the submodular ones, and the permutation can be read back off the
mixed second difference.

Representation: an explicit integer grid over a finite box, a period k, and a
band half-width N.  Evaluation anywhere:

* inside the box: the stored value;
* outside the box but within the band |a - b| < N: translate along the
  diagonal by multiples of (k, k) into the box (the box always spans at least
  one full period across every diagonal of the band);
* beyond the band: max{0, chi + a - b}.

The three product operations are computed cell by cell over a result box:

    star:  (s * t)(a, b)  = min_l [ s(a, l) + t(l, b) ]
    tll:   (s <| t)(a, b) = max_l [ s(a, l) - t~(b, l) ]
    tlr:   (s |> t)(a, b) = max_l [ t(l, b) - s~(l, a) ]

where t~ is the dual t~(b, a) = t(a, b) - chi_t - a + b.  Optima always occur
on the finite plateau-end set of the relevant column, so restricting l to a
band-width range around b is exact.  Grid work is vectorized with numpy; all
arithmetic is int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import (
    AsymptoteMismatch,
    ClosureVerification,
    InconsistentSlipface,
    NotASlipface,
    NotSubmodular,
    ParseError,
    ResourceLimit,
)
from .order import EssPoint, EssSet, perm_box, scan_region
from .perm import Permutation, _check_cells, _images, apply, from_window

if TYPE_CHECKING:  # annotations only; numpy loads where arrays are built
    import numpy as np

__all__ = [
    "Slipface",
    "EssPoint",
    "EssSet",
    "sf_from_perm",
    "sf_eval",
    "sf_eval_grid",
    "sf_dual",
    "sf_equal",
    "sf_validate",
    "sf_is_submodular",
    "sf_to_perm",
    "sf_from_rank_grid",
    "ess_set",
    "sf_leq_grid",
    "sf_leq_ess",
    "sf_star",
    "sf_tll",
    "sf_tlr",
    "write_slipface",
    "read_slipface",
]

@dataclass(frozen=True, eq=False)
class Slipface:
    chi: int
    period: int
    band: int
    a_lo: int
    b_lo: int
    grid: np.ndarray  # shape (A, B) int64, read-only

    @property
    def a_hi(self) -> int:
        return self.a_lo + self.grid.shape[0] - 1

    @property
    def b_hi(self) -> int:
        return self.b_lo + self.grid.shape[1] - 1

    @property
    def box(self) -> tuple[int, int, int, int]:
        """(period, band, lo, hi), the stored box lying within [lo, hi]^2."""
        lo, hi = min(self.a_lo, self.b_lo), max(self.a_hi, self.b_hi)
        return self.period, self.band, lo, hi

    def __repr__(self) -> str:
        return (
            f"Slipface(chi={self.chi}, k={self.period}, band={self.band}, "
            f"box=[{self.a_lo}..{self.a_hi}]x[{self.b_lo}..{self.b_hi}])"
        )


def _mk(chi: int, period: int, band: int, a_lo: int, b_lo: int, grid) -> Slipface:
    import numpy as np
    band = max(band, abs(chi) + 1, 1)
    grid = np.ascontiguousarray(grid, dtype=np.int64)
    _check_cells("slipface grid", grid.size)
    grid.setflags(write=False)
    s = Slipface(chi, period, band, a_lo, b_lo, grid)
    bad = _geometry_violation(s)
    if bad:
        raise NotASlipface(bad)
    return s


def _geometry_violation(s: Slipface) -> str | None:
    # every diagonal of the band must cross the box in >= one full period,
    # otherwise out-of-box translation has nowhere to land
    for d in range(-(s.band - 1), s.band):
        seg = min(s.a_hi, s.b_hi + d) - max(s.a_lo, s.b_lo + d) + 1
        if seg < s.period:
            return (
                f"box [{s.a_lo}..{s.a_hi}]x[{s.b_lo}..{s.b_hi}] spans only "
                f"{seg} cells on diagonal a-b={d}, needs period {s.period}"
            )
    return None


# ---------------------------------------------------------------------------
# evaluation


def sf_eval(s: Slipface, a: int, b: int) -> int:
    d = a - b
    if s.a_lo <= a <= s.a_hi and s.b_lo <= b <= s.b_hi:
        return int(s.grid[a - s.a_lo, b - s.b_lo])
    if abs(d) >= s.band:
        return max(0, s.chi + d)
    k = s.period
    up = max(a - s.a_hi, b - s.b_hi)
    if up > 0:
        m = -(-up // k)
        a -= m * k
        b -= m * k
    else:
        dn = max(s.a_lo - a, s.b_lo - b)
        m = -(-dn // k)
        a += m * k
        b += m * k
    if not (s.a_lo <= a <= s.a_hi and s.b_lo <= b <= s.b_hi):
        raise InconsistentSlipface(
            f"band cell translates outside the box in {s!r}", (a, b)
        )
    return int(s.grid[a - s.a_lo, b - s.b_lo])


def sf_eval_grid(s: Slipface, a0: int, a1: int, b0: int, b1: int) -> np.ndarray:
    """Vectorized evaluation on the rectangle [a0, a1] x [b0, b1]."""
    import numpy as np
    _check_cells("evaluation rectangle", (a1 - a0 + 1) * (b1 - b0 + 1))
    A = np.arange(a0, a1 + 1, dtype=np.int64)[:, None]
    B = np.arange(b0, b1 + 1, dtype=np.int64)[None, :]
    delta = A - B
    asym = np.maximum(0, s.chi + delta)

    k = s.period
    up = np.maximum(np.maximum(A - s.a_hi, B - s.b_hi), 0)
    m_dn = -(-up // k)
    dn = np.maximum(np.maximum(s.a_lo - A, s.b_lo - B), 0)
    m_up = -(-dn // k)
    Ai = A - m_dn * k + m_up * k - s.a_lo
    Bi = B - m_dn * k + m_up * k - s.b_lo

    in_box = (A >= s.a_lo) & (A <= s.a_hi) & (B >= s.b_lo) & (B <= s.b_hi)
    use_grid = in_box | (np.abs(delta) < s.band)

    nA, nB = s.grid.shape
    ok = (Ai >= 0) & (Ai < nA) & (Bi >= 0) & (Bi < nB)
    if np.any(use_grid & ~ok):
        bad = np.argwhere(use_grid & ~ok)[0]
        raise InconsistentSlipface(
            f"band cell translates outside the box in {s!r}",
            (a0 + int(bad[0]), b0 + int(bad[1])),
        )
    vals = s.grid[np.clip(Ai, 0, nA - 1), np.clip(Bi, 0, nB - 1)]
    return np.where(use_grid, vals, asym)


def _box_frame_grid(s: Slipface) -> np.ndarray:
    return sf_eval_grid(s, s.a_lo - 1, s.a_hi + 1, s.b_lo - 1, s.b_hi + 1)


# ---------------------------------------------------------------------------
# constructors


def rank_table(p: Permutation, a0: int, a1: int, b0: int, b1: int) -> np.ndarray:
    """s_p(a, b) = #{n >= b : alpha(n) < a} on [a0, a1] x [b0, b1].

    Columns b0..b1 are a suffix sum of alpha(n) < a over n in [b, b1]; the
    n > b1 add one count per row.  From n0 = max(b1, hi) + 1 on, the right
    tail runs through alpha(n0 + i) + kZ for i < k, a complete residue system:
    it hits every integer from top = max_i alpha(n0 + i) - k + 1 on, and its
    few values below top join the window's in one sorted search.  The left
    tail's classes are counted in closed form, and only when some n > b1 lies
    left of the window.
    """
    import numpy as np
    _check_cells("rank table", (a1 - a0 + 1) * (b1 - b0 + 1))
    k, lo, hi = p.period, p.lo, p.hi
    # every alpha(n) met lies within reach of 0, so below 2^62 each
    # difference and count stays inside int64
    reach = max(abs(a0), abs(a1), abs(b0), abs(b1), abs(lo), abs(hi)) + k + p.diff_bound
    if reach >= 2**62:
        raise ResourceLimit(
            f"rank table on [{a0}..{a1}]x[{b0}..{b1}] of the window [{lo}..{hi}] "
            f"needs integers up to {reach}, over the int64 limit {2**62}"
        )
    a = np.arange(a0, a1 + 1, dtype=np.int64)
    img = np.array(_images(k, lo, p.vals, b0, b1), dtype=np.int64)
    below = img[None, :] < a[:, None]
    counts = np.cumsum(below[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
    n0 = max(b1, hi) + 1
    firsts = [apply(p, n) for n in range(n0, n0 + k)]
    top = max(firsts) - k + 1
    seen = list(p.vals[max(b1 + 1 - lo, 0) :])
    seen += [v for u in firsts for v in range(u, top, k)]
    tail = np.searchsorted(np.sort(np.array(seen, dtype=np.int64)), a)
    tail += np.maximum(0, a - top)
    if b1 + 1 < lo:  # left tail: n = j - km in (b1, lo) for 1 <= m0 <= m <= m1
        v = np.array(p.vals[:k], dtype=np.int64)
        m0 = np.maximum(1, (v - a[:, None]) // k + 1)
        m1 = (np.arange(lo, lo + k, dtype=np.int64) - b1 - 1) // k
        tail += np.maximum(0, m1 - m0 + 1).sum(axis=1)
    return counts + tail[:, None]


@lru_cache(maxsize=1024)
def sf_from_perm(p: Permutation) -> Slipface:
    """The rank-counting slipface of a permutation: its rank_table on
    perm_box, one period plus one band width beyond the window on each side,
    enough for the diagonal-translation rule to reproduce eval_s everywhere."""
    k, band, c0, c1 = perm_box(p)
    return _mk(p.chi, k, band, c0, c0, rank_table(p, c0, c1, c0, c1))


def sf_dual(s: Slipface) -> Slipface:
    """The dual slipface s~(b, a) = s(a, b) - chi - a + b; an exact involution."""
    import numpy as np
    A = np.arange(s.a_lo, s.a_hi + 1, dtype=np.int64)[:, None]
    B = np.arange(s.b_lo, s.b_hi + 1, dtype=np.int64)[None, :]
    dual = (s.grid - s.chi - A + B).T
    return _mk(-s.chi, s.period, s.band, s.b_lo, s.a_lo, dual)


def sf_from_rank_grid(
    grid, chi: int, m: int, a_lo: int, b_lo: int, period: int = 1
) -> Slipface:
    """Build a slipface from a raw rank table.

    ``m`` plays the band role: the table must already equal 0 where
    a - b <= -m and chi + a - b where a - b >= m, and must move in unit steps.
    """
    import numpy as np
    grid = np.ascontiguousarray(grid, dtype=np.int64)
    nA, nB = grid.shape
    A = np.arange(a_lo, a_lo + nA, dtype=np.int64)[:, None]
    B = np.arange(b_lo, b_lo + nB, dtype=np.int64)[None, :]
    delta = A - B
    low = (delta <= -m) & (grid != 0)
    if np.any(low):
        i, j = np.argwhere(low)[0]
        raise AsymptoteMismatch(
            f"expected 0 at a-b <= {-m}, found {grid[i, j]}",
            (a_lo + int(i), b_lo + int(j)),
        )
    high = (delta >= m) & (grid != chi + delta)
    if np.any(high):
        i, j = np.argwhere(high)[0]
        raise AsymptoteMismatch(
            f"expected chi+a-b at a-b >= {m}, found {grid[i, j]}",
            (a_lo + int(i), b_lo + int(j)),
        )
    da = grid[1:, :] - grid[:-1, :]
    bad = (da < 0) | (da > 1)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise NotASlipface(
            "first-argument steps must be 0 or 1", (a_lo + int(i), b_lo + int(j))
        )
    db = grid[:, :-1] - grid[:, 1:]
    bad = (db < 0) | (db > 1)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise NotASlipface(
            "second-argument steps must be 0 or 1", (a_lo + int(i), b_lo + int(j))
        )
    s = _mk(chi, period, m, a_lo, b_lo, grid)
    bad_list = sf_validate(s)
    if bad_list:
        raise NotASlipface("; ".join(bad_list[:3]))
    return s


# ---------------------------------------------------------------------------
# validation and structure


def sf_validate(s: Slipface) -> list[str]:
    """Check the slipface axioms on the box plus a one-cell guard frame.

    Returns human-readable violations (empty means valid): unit steps in both
    arguments, domination of the asymptote, and agreement with the asymptote
    on all represented cells beyond the band (which also forces every row and
    column to reach its asymptote).
    """
    import numpy as np
    out: list[str] = []
    g = _box_frame_grid(s)
    a0, b0 = s.a_lo - 1, s.b_lo - 1
    A = np.arange(a0, s.a_hi + 2, dtype=np.int64)[:, None]
    B = np.arange(b0, s.b_hi + 2, dtype=np.int64)[None, :]
    delta = A - B

    da = g[1:, :] - g[:-1, :]
    bad = (da < 0) | (da > 1)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        out.append(
            f"first-argument step {da[i, j]} at ({a0 + int(i)}, {b0 + int(j)})"
        )
    db = g[:, :-1] - g[:, 1:]
    bad = (db < 0) | (db > 1)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        out.append(
            f"second-argument step {db[i, j]} at ({a0 + int(i)}, {b0 + int(j)})"
        )
    asym = np.maximum(0, s.chi + delta)
    bad = g < asym
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        out.append(
            f"value {g[i, j]} below asymptote {asym[i, j]} "
            f"at ({a0 + int(i)}, {b0 + int(j)})"
        )
    bad = (np.abs(delta) >= s.band) & (g != asym)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        out.append(
            f"value {g[i, j]} differs from asymptote beyond the band "
            f"at ({a0 + int(i)}, {b0 + int(j)})"
        )
    geo = _geometry_violation(s)
    if geo:
        out.append(geo)
    return out


def sf_is_submodular(s: Slipface) -> tuple[bool, tuple[int, int] | None]:
    """Whether the mixed second difference is nonnegative; witness on failure.

    Checking the box plus frame suffices: outside, the function repeats
    box values along the diagonal or equals the asymptote, whose mixed
    difference is the 0/1 fold indicator.
    """
    import numpy as np
    g = _box_frame_grid(s)
    dd = g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]
    bad = dd < 0
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return False, (s.a_lo - 1 + int(i), s.b_lo - 1 + int(j))
    return True, None


def sf_to_perm(s: Slipface) -> Permutation:
    """Reconstruct the permutation whose slipface is s.

    Requires submodularity.  Column b maps to the unique a with mixed
    difference 1; every such cell lies within the band, so a fixed row range
    around the box columns sees them all.  The result is verified: its own
    slipface must reproduce s on a region that pins the function everywhere.
    """
    import numpy as np
    ok, cell = sf_is_submodular(s)
    if not ok:
        raise NotSubmodular("cannot invert a non-submodular slipface", cell)
    a0 = s.b_lo - s.band - 1
    a1 = s.b_hi + s.band + 2
    g = sf_eval_grid(s, a0, a1, s.b_lo, s.b_hi + 1)
    dd = g[1:, :-1] - g[:-1, :-1] - g[1:, 1:] + g[:-1, 1:]
    counts = (dd == 1).sum(axis=0)
    if np.any(counts != 1):
        j = int(np.argwhere(counts != 1)[0][0])
        raise InconsistentSlipface(
            f"column {s.b_lo + j} carries mixed-difference mass "
            f"{int(counts[j])}, expected 1"
        )
    rows = np.argmax(dd == 1, axis=0)
    vals = [int(a0 + r) for r in rows]
    p = from_window(s.period, s.b_lo, vals)
    if not sf_equal(sf_from_perm(p), s):
        raise InconsistentSlipface(
            "reconstructed permutation does not reproduce the slipface"
        )
    return p


def sf_equal(s: Slipface, t: Slipface) -> bool:
    """Equality as functions on all of Z^2."""
    import numpy as np
    if s.chi != t.chi:
        return False
    lo, hi, _ = scan_region(s.box, t.box)
    return bool(
        np.array_equal(
            sf_eval_grid(s, lo, hi, lo, hi), sf_eval_grid(t, lo, hi, lo, hi)
        )
    )


# ---------------------------------------------------------------------------
# essential sets and comparison


def ess_mask(g: np.ndarray) -> np.ndarray:
    """Essential cells of the interior of g, a rank table with a one-cell frame:
    s(a, b) > s(a-1, b), s(a, b) = s(a+1, b), s(a, b) > s(a, b+1) and
    s(a, b) = s(a, b-1)."""
    c = g[1:-1, 1:-1]
    return (
        (c > g[:-2, 1:-1])
        & (c == g[2:, 1:-1])
        & (c > g[1:-1, 2:])
        & (c == g[1:-1, :-2])
    )


def _ess_mask_points(s: Slipface, a0: int, a1: int, b0: int, b1: int):
    """Essential points with (a, b) in the given rectangle."""
    import numpy as np
    g = sf_eval_grid(s, a0 - 1, a1 + 1, b0 - 1, b1 + 1)
    c = g[1:-1, 1:-1]
    return [
        EssPoint(a0 + int(i), b0 + int(j), int(c[i, j]))
        for i, j in np.argwhere(ess_mask(g))
    ]


def ess_set(s: Slipface) -> EssSet:
    """Essential points in the box plus one diagonal period beyond each end.

    Every essential point lies strictly inside the band, and beyond the box
    the band pattern repeats with the diagonal period, so one extra period of
    scan depth on each side captures a full cycle of each tail; the flag marks
    whether the set continues periodically forever.
    """
    k = s.period
    pts = _ess_mask_points(
        s, s.a_lo - k, s.a_hi + k, s.b_lo - k, s.b_hi + k
    )
    ne = any(p.a > s.a_hi or p.b > s.b_hi for p in pts)
    sw = any(p.a < s.a_lo or p.b < s.b_lo for p in pts)
    return EssSet(tuple(sorted(pts)), ne or sw, k)


def sf_leq_grid(
    s: Slipface, t: Slipface
) -> tuple[bool, tuple[int, int] | None]:
    """Pointwise comparison by scanning the full certified band region."""
    import numpy as np
    lo, hi, far = scan_region(s.box, t.box)
    if s.chi > t.chi:
        return False, far
    S = sf_eval_grid(s, lo, hi, lo, hi)
    T = sf_eval_grid(t, lo, hi, lo, hi)
    bad = S > T
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return False, (lo + int(i), lo + int(j))
    return True, None


def sf_leq_ess(s: Slipface, t: Slipface) -> tuple[bool, tuple[int, int] | None]:
    """Comparison restricted to the essential points of s.

    Valid whenever chi_s <= chi_t, since every representable slipface is
    Clifford (bounded band forces s + s~ to be bounded where both are
    positive).  Points outside the scanned region are periodic translates of
    scanned ones.
    """
    lo, hi, far = scan_region(s.box, t.box)
    if s.chi > t.chi:
        return False, far
    S = sf_eval_grid(s, lo - 1, hi + 1, lo - 1, hi + 1)
    return leq_at_ess(S, sf_eval_grid(t, lo, hi, lo, hi), lo, lo)


def leq_at_ess(
    S: np.ndarray, T: np.ndarray, a0: int, b0: int
) -> tuple[bool, tuple[int, int] | None]:
    """Whether S <= T at the essential cells of S, with the first failing
    cell in (a, b) order.  T holds a rectangle starting at (a0, b0), and S
    the same rectangle with a one-cell frame."""
    import numpy as np
    bad = ess_mask(S) & (S[1:-1, 1:-1] > T)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return False, (a0 + int(i), b0 + int(j))
    return True, None


# ---------------------------------------------------------------------------
# tropical products


def _min_plus(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    import numpy as np
    nA, nL = S.shape
    nB = T.shape[1]
    out = np.full((nA, nB), np.iinfo(np.int64).max // 4, dtype=np.int64)
    step = max(1, 4_000_000 // max(1, nA * nB))
    for i in range(0, nL, step):
        blk = S[:, i : i + step, None] + T[None, i : i + step, :]
        np.minimum(out, blk.min(axis=1), out=out)
    return out


def _max_minus(S: np.ndarray, Td: np.ndarray) -> np.ndarray:
    import numpy as np
    # out[a, b] = max_l S[a, l] - Td[b, l]
    nA, nL = S.shape
    nB = Td.shape[0]
    out = np.full((nA, nB), np.iinfo(np.int64).min // 4, dtype=np.int64)
    step = max(1, 4_000_000 // max(1, nA * nB))
    for i in range(0, nL, step):
        blk = S[:, i : i + step, None] - Td.T[None, i : i + step, :]
        np.maximum(out, blk.max(axis=1), out=out)
    return out


def _tropical(s: Slipface, t: Slipface, kind: str) -> Slipface:
    """star (min-plus) or tll (max-minus) of s and t on one box, sized once
    from the band bound band(u) <= B = S + T, S = band(s), T = band(t).

    Each band exceeds its |chi|; each slipface dominates max{0, chi + a - b},
    equals it for |a - b| >= its band, and drops by 0 or 1 per step of its
    second argument; the dual t~(b, l) = t(l, b) - chi_t - l + b dominates
    max{0, b - l - chi_t} and equals it for |l - b| >= T.
    star, u(a, b) = min_l s(a, l) + t(l, b): u dominates its asymptote; for
    a - b >= B, l = b + T gives it, and for b - a >= B, l = b - T gives 0.
    tll, u(a, b) = max_l s(a, l) - t~(b, l): for a - b >= B, l = b - T
    gives chi + a - b, each l < b + T at most s(a, l) - (b - l - chi_t) =
    chi + a - b, each l >= b + T at most s(a, b + T) < chi + a - b; for
    b - a >= B, large l gives 0, each l < a + S at most (a + S - l) -
    (b - l - chi_t) < 0, each l >= a + S at most -t~(b, l) <= 0.
    tlr, the dual of a tll of duals, keeps the bound, as duals keep bands.  A
    cell off its asymptote past B, or a failed ``sf_validate``, raises
    ``ClosureVerification``."""
    import numpy as np
    k = math.lcm(s.period, t.period)
    chi = s.chi + t.chi
    band = s.band + t.band
    lo = min(s.a_lo, s.b_lo, t.a_lo, t.b_lo)
    hi = max(s.a_hi, s.b_hi, t.a_hi, t.b_hi)
    margin = k + band + 2
    c0, c1 = lo - margin, hi + margin
    _check_cells("result box", (c1 - c0 + 1) ** 2)
    reach = t.band + 2
    l0, l1 = c0 - reach, c1 + reach
    S = sf_eval_grid(s, c0, c1, l0, l1)
    if kind == "star":
        T = sf_eval_grid(t, l0, l1, c0, c1)
        g = _min_plus(S, T)
    else:  # tll
        Td = sf_eval_grid(sf_dual(t), c0, c1, l0, l1)
        g = _max_minus(S, Td)

    A = np.arange(c0, c1 + 1, dtype=np.int64)[:, None]
    B = np.arange(c0, c1 + 1, dtype=np.int64)[None, :]
    delta = A - B
    far = np.argwhere((g != np.maximum(0, chi + delta)) & (np.abs(delta) >= band))
    if len(far):
        a, b = (int(i) + c0 for i in far[0])
        raise ClosureVerification(
            f"{kind} result leaves its asymptote at ({a}, {b}), past band {band}"
        )
    out = _mk(chi, k, band, c0, c0, g)
    bad = sf_validate(out)
    if bad:
        raise ClosureVerification(
            f"{kind} result failed validation: " + "; ".join(bad[:3])
        )
    return out


def sf_star(s: Slipface, t: Slipface) -> Slipface:
    """Tropical (min-plus) product; the slipface of the Demazure product."""
    return _tropical(s, t, "star")


def sf_tll(s: Slipface, t: Slipface) -> Slipface:
    """Left adjoint: the least u with u * t >= s (computed directly)."""
    return _tropical(s, t, "tll")


def sf_tlr(s: Slipface, t: Slipface) -> Slipface:
    """Right adjoint, via the dual identity (s |> t) = (t~ <| s~)~."""
    return sf_dual(sf_tll(sf_dual(t), sf_dual(s)))


# ---------------------------------------------------------------------------
# file format


def write_slipface(s: Slipface, kind: str = "slipface") -> str:
    if kind not in ("slipface", "rankgrid"):
        raise ValueError(f"unknown kind {kind!r}")
    lines = [
        f"{kind} chi={s.chi} k={s.period} band={s.band} "
        f"box={s.a_lo}..{s.a_hi}x{s.b_lo}..{s.b_hi}"
    ]
    for row in s.grid:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def _header_int(fields: dict[str, str], key: str, text: str) -> int:
    if key not in fields:
        raise ParseError(f"missing header field {key}=", text, 0)
    try:
        return int(fields[key])
    except ValueError:
        raise ParseError(f"bad integer for {key}=", text, text.find(key))


def read_slipface(text: str) -> Slipface:
    """Parse the grid file format; header then one row per a-value."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty slipface file", text, 0)
    head = lines[0].split()
    if head[0] not in ("slipface", "rankgrid"):
        raise ParseError("header must start with 'slipface' or 'rankgrid'", text, 0)
    fields = {}
    for tok in head[1:]:
        if "=" not in tok:
            raise ParseError(f"bad header token {tok!r}", text, text.find(tok))
        key, _, val = tok.partition("=")
        fields[key] = val
    chi = _header_int(fields, "chi", text)
    k = _header_int(fields, "k", text)
    band = _header_int(fields, "band", text)
    box = fields.get("box", "")
    try:
        arange, brange = box.split("x")
        a_lo, a_hi = (int(v) for v in arange.split(".."))
        b_lo, b_hi = (int(v) for v in brange.split(".."))
    except ValueError:
        raise ParseError("bad box= field, want box=A..BxC..D", text, text.find("box"))
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(v) for v in ln.split()])
        except ValueError:
            raise ParseError("bad grid row", text, text.find(ln))
    if len(rows) != a_hi - a_lo + 1:
        raise ParseError(
            f"expected {a_hi - a_lo + 1} rows, found {len(rows)}", text, 0
        )
    width = b_hi - b_lo + 1
    for ln_no, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"row {ln_no} holds {len(row)} values, expected {width}", text, 0
            )
    if head[0] == "rankgrid":
        return sf_from_rank_grid(rows, chi, band, a_lo, b_lo, k)
    s = _mk(chi, k, band, a_lo, b_lo, rows)
    bad = sf_validate(s)
    if bad:
        raise NotASlipface("; ".join(bad[:3]))
    return s
