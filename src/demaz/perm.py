"""Eventually periodic permutations of the integers.

A permutation here is a bijection alpha of the integers carrying only finitely
many nonnegative integers to negative ones and vice versa.  Such a bijection is
stored as a finite window of explicit values together with periodic
continuation on both sides:

* ``vals[i]`` is ``alpha(lo + i)`` for ``lo <= n <= hi``;
* for ``n < lo``:  ``alpha(n) = alpha(n') - k*m`` where ``n = n' - k*m`` and
  ``n'`` is the unique representative of ``n`` modulo ``k`` in ``[lo, lo+k)``;
* for ``n > hi``:  ``alpha(n) = alpha(n') + k*m`` where ``n = n' + k*m`` and
  ``n'`` lies in ``(hi-k, hi]``.

Every such bijection has a finite counting function

    eval_s(alpha, a, b) = #{n >= b : alpha(n) < a}

and a shift

    shift_of(alpha) = #{n >= 0 : alpha(n) < 0} - #{n < 0 : alpha(n) >= 0},

both computed exactly with integer arithmetic (window scan plus closed-form
arithmetic-progression counts for the tails; no floating point anywhere).
Sweeps of s_p down a rectangle's columns (``order``, ``render``) start from
``_rank_bits``.

Permutations are value objects: all public constructors return the canonical
representative (smallest valid period dividing the given one, smallest window
reproducing all trimmed values through the tail rule), so ``==`` is plain field
equality.

>>> a = make_from_one_line([2, 1])
>>> apply(a, 1), apply(a, 2), apply(a, 3)
(2, 1, 3)
>>> eval_s(a, 2, 1)
1
>>> shift_of(make_shift(3))
3
"""

from __future__ import annotations

import math
import operator
from bisect import bisect
from contextvars import ContextVar
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InfiniteInversions,
    InternalInconsistency,
    InvalidGeneratorSet,
    InvalidPermutation,
    ResourceLimit,
)

__all__ = [
    "Permutation",
    "ResidueClass",
    "Violation",
    "make_from_one_line",
    "make_affine",
    "make_shift",
    "make_sigma_set",
    "make_gamma",
    "from_window",
    "apply",
    "inverse",
    "compose",
    "shift_of",
    "eval_s",
    "delta_s",
    "diff_bound",
    "validate",
    "canonicalize",
    "has_inversion",
    "inversions_in",
    "is_finitary",
    "inv_count",
    "identity",
    "get_max_window",
    "set_max_window",
]

DEFAULT_MAX_WINDOW = 10**6
# the window cap of the current context: a thread or a copied context that
# sets it leaves its caller's as it was
_max_window: ContextVar[int] = ContextVar("max_window", default=DEFAULT_MAX_WINDOW)
# cells of any rectangle tabulated or scanned: rank tables, slipface grids,
# essential-cell sweeps, renderings, and the letters of a fold word
_GRID_CELL_CAP = 40_000_000


def get_max_window() -> int:
    return _max_window.get()


def set_max_window(n: int) -> None:
    """Set the window-length cap of the current context, used by compose,
    the constructors and every product."""
    if n < 1:
        raise ValueError("window cap must be positive")
    _max_window.set(n)


def _check_window(what: str, size: int) -> None:
    """Refuse a window, band or list of size entries over the window cap
    before it is built."""
    if size > (cap := _max_window.get()):
        raise ResourceLimit(
            f"{what} of {size} entries exceeds cap {cap} (raise it with --max-window)"
        )


def _check_cells(what: str, cells: int) -> None:
    """Refuse a rectangle, grid or fold word of cells entries over the cell
    cap before it is built."""
    if cells > _GRID_CELL_CAP:
        raise ResourceLimit(f"{what} of {cells} cells exceeds cap {_GRID_CELL_CAP}")


class ResidueClass(NamedTuple):
    """The set rep + modulus*Z, used for periodic transposition families."""

    rep: int
    modulus: int

    def __contains__(self, n: int) -> bool:  # type: ignore[override]
        return (n - self.rep) % self.modulus == 0


class Violation(NamedTuple):
    kind: str
    detail: str


class Permutation:
    """Canonical window representation of an eventually periodic bijection.

    ``chi`` (the shift) and ``diff_bound`` (sup of ``|alpha(n) - n|``) are
    derived caches and excluded from equality.  Instances are immutable.
    """

    __slots__ = ("period", "lo", "vals", "chi", "diff_bound")
    period: int
    lo: int
    vals: tuple[int, ...]
    chi: int
    diff_bound: int

    def __init__(
        self, period: int, lo: int, vals: tuple[int, ...], chi: int, diff_bound: int
    ) -> None:
        # the slots' own setters, bound below the class, bypass __setattr__
        _set_period(self, period)
        _set_lo(self, lo)
        _set_vals(self, vals)
        _set_chi(self, chi)
        _set_diff_bound(self, diff_bound)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Permutation")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Permutation")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.period, self.lo, self.vals) == (other.period, other.lo, other.vals)

    def __hash__(self) -> int:
        return hash((self.period, self.lo, self.vals))

    def __reduce__(self):
        return Permutation, (self.period, self.lo, self.vals, self.chi, self.diff_bound)

    @property
    def hi(self) -> int:
        return self.lo + len(self.vals) - 1

    def __call__(self, n: int) -> int:
        return apply(self, n)

    def __repr__(self) -> str:
        body = " ".join(str(v) for v in self.vals)
        return f"ep(k={self.period}, lo={self.lo}; {body})"


_set_period, _set_lo, _set_vals, _set_chi, _set_diff_bound = (
    Permutation.__dict__[name].__set__ for name in Permutation.__slots__
)


# ---------------------------------------------------------------------------
# raw evaluation (works on not-yet-validated fields)


def _tail_apply(period: int, lo: int, vals: Sequence[int], n: int) -> int:
    i = n - lo
    if 0 <= i < len(vals):
        return vals[i]
    # off the window alpha(n) - n repeats its value at the representative
    # lo + j of n modulo the period at that end of the window
    j = i % period if i < 0 else len(vals) - period + (i - len(vals)) % period
    return vals[j] + i - j


def _images(period: int, lo: int, vals: Sequence[int], n0: int, n1: int) -> list[int]:
    """alpha(n) for n in [n0, n1]: the window by one slice, and each residue
    class of each tail by one range, since alpha(n) - n is constant on a
    class within a tail (see _tail_apply)."""
    k, w = period, len(vals)
    # offsets i = n - lo into the window, half-open [i0, i1)
    i0, i1 = n0 - lo, n1 - lo + 1
    if 0 <= i0 and i1 <= w:
        return list(vals[i0:i1])
    out = [0] * (i1 - i0) if i0 < i1 else []
    if i0 < 0:
        e = i1 if i1 < 0 else 0
        for j, v in enumerate(vals[:k]):
            # the class of offset j, from its first offset c >= i0 to e
            c = i0 + (j - i0) % k
            if c < e:
                out[c - i0 : e - i0 : k] = range(v + c - j, v + e - j, k)
    if i1 > w:
        s = i0 if i0 > w else w
        for j, v in enumerate(vals[w - k :], w - k):
            c = s + (j - s) % k
            if c < i1:
                out[c - i0 :: k] = range(v + c - j, v + i1 - j, k)
    a, b = (i0 if i0 > 0 else 0), (i1 if i1 < w else w)
    if a < b:
        out[a - i0 : b - i0] = vals[a:b]
    return out


def _preimages(
    period: int, lo: int, vals: Sequence[int], a0: int, a1: int
) -> list[int]:
    """alpha^-1(a) for a in [a0, a1].  In the residue class of each of the
    first k window values L the targets below L continue L's preimage
    downward in steps of one, in that of each of the last k values R the
    targets above R continue R's preimage upward, and the targets between
    them are window values (see ``validate``)."""
    k, last = period, len(vals) - period
    out = [0] * (a1 - a0 + 1) if a0 <= a1 else []
    for j in range(k):
        v, d = vals[j], lo + j - vals[j]
        s, e = a0 + (v - a0) % k, (a1 if a1 < v - k else v - k)
        if s <= e:
            out[s - a0 : e - a0 + 1 : k] = range(s + d, e + d + 1, k)
        v, d = vals[last + j], lo + last + j - vals[last + j]
        s = a0 + (v - a0) % k if a0 > v else v + k
        if s <= a1:
            out[s - a0 :: k] = range(s + d, a1 + d + 1, k)
    for n, v in enumerate(vals, lo):
        if a0 <= v <= a1:
            out[v - a0] = n
    return out


def _raw_diff_bound(period: int, lo: int, vals: Sequence[int]) -> int:
    # alpha(n) - n along each tail repeats its value at the window
    # representative of n (see _tail_apply), so the window holds the supremum
    return max(map(abs, map(operator.sub, vals, range(lo, lo + len(vals)))))


# ---------------------------------------------------------------------------
# validation


def validate(period: int, lo: int, vals: Sequence[int]) -> list[Violation]:
    """Check that raw window fields describe a bijection of the integers.

    Returns a list of violations (empty means valid).  After the period and
    window-cap checks, ``_covers_each_class_once`` reads the verdict in one
    pass: the first and last ``period`` window values must each form a
    complete residue system modulo ``period`` (tail injectivity and
    coverage), and then, with ``L_r`` and ``R_r`` the first and last of those
    values in class r, the left tail hits class r exactly below ``L_r`` and
    the right tail exactly above ``R_r``, so the map is a bijection exactly
    when the window's values are distinct, each lies in ``[L_r, R_r]`` of its
    class, and their number is ``sum_r ((R_r - L_r) / period + 1)``.

    Only a window that fails is examined further, to list its violations:
    first the residue collisions of either end, else a scan of a guard band
    for colliding images (any colliding pair lies within ``2*diff_bound`` of
    each other, and pure-tail collisions are excluded by the residue check)
    and targets near the window with no or several preimages within
    ``diff_bound`` of them.
    """
    out: list[Violation] = []
    k = period
    if k < 1:
        return [Violation("bad-period", f"period {k} is not positive")]
    if len(vals) < k:
        return [
            Violation(
                "short-window",
                f"window holds {len(vals)} values, needs at least period {k}",
            )
        ]
    _check_window("window", len(vals))
    if _covers_each_class_once(k, vals):
        return []

    for side, start in (("left", 0), ("right", len(vals) - k)):
        residues = [v % k for v in vals[start : start + k]]
        if len(set(residues)) != k:
            out.append(_residue_collision(side, lo + start, residues))
    if out:
        return out
    out = _band_violations(k, lo, vals)
    if not out:
        raise InternalInconsistency(
            f"ep(k={k}, lo={lo}; {' '.join(map(str, vals))}) fails the "
            "residue-class count, but the band scan finds no violation"
        )
    return out


def _residue_collision(side: str, n0: int, residues: list[int]) -> Violation:
    """The first two of the values alpha(n0), ..., alpha(n0 + k - 1) that
    generate one tail and share a residue mod k, given their residues, with
    the number of distinct residues: a detail of bounded length for any k."""
    k, seen = len(residues), {}
    for j, r in enumerate(residues):
        i = seen.setdefault(r, j)
        if i != j:
            break
    return Violation(
        "residue-collision",
        f"{side} tail generator: alpha({n0 + i}) and alpha({n0 + j}) share "
        f"residue {r} mod {k}; {len(set(residues))} of {k} residues occur",
    )


def _covers_each_class_once(k: int, vals: Sequence[int]) -> bool:
    """The verdict of ``validate`` on a window within the caps: both end
    residue systems are complete and each class is covered once."""
    if k == 1:  # one class, spanning [vals[0], vals[-1]]
        inside = min(vals) == vals[0] and max(vals) == vals[-1]
        count = vals[-1] - vals[0] + 1
    else:
        first = {v % k: v for v in vals[:k]}
        last = {v % k: v for v in vals[-k:]}
        if len(first) < k or len(last) < k:
            return False
        inside = all(first[v % k] <= v <= last[v % k] for v in vals)
        # R_r - L_r is a multiple of k in each class
        count = (sum(last.values()) - sum(first.values())) // k + k
    return inside and count == len(vals) == len(set(vals))


def _band_violations(k: int, lo: int, vals: Sequence[int]) -> list[Violation]:
    """List the collisions and the missing or repeated preimages on the
    guard band of an invalid window, in band order."""
    out = []
    hi = lo + len(vals) - 1
    m = _raw_diff_bound(k, lo, vals)
    _check_window("violation band", len(vals) + 4 * m + 4 * k)
    # every preimage n of a target a satisfies |n - a| <= diff_bound, so a
    # band reaching diff_bound beyond the targets holds all of their preimages
    pre: dict[int, list[int]] = {}
    for n in range(lo - 2 * m - 2 * k, hi + 2 * m + 2 * k + 1):
        pre.setdefault(_tail_apply(k, lo, vals, n), []).append(n)
    collisions = sorted(
        (hits[i], hits[i - 1], v)
        for v, hits in pre.items()
        for i in range(1, len(hits))
    )
    for n, prev, v in collisions:
        out.append(Violation("duplicate-image", f"alpha({prev}) = alpha({n}) = {v}"))

    for a in range(lo - m - k, hi + m + k + 1):
        hits = pre.get(a)
        if not hits:
            out.append(Violation("missing-preimage", f"no n with alpha(n) = {a}"))
        elif len(hits) > 1:
            out.append(
                Violation("duplicate-preimage", f"alpha({hits}) all equal {a}")
            )
    return out


# ---------------------------------------------------------------------------
# canonical form


def _canonical_fields(
    period: int, lo: int, vals: Sequence[int]
) -> tuple[int, int, tuple[int, ...], int, int]:
    """The canonical (period, lo, vals, chi, diff_bound) of a valid window."""
    k, w = period, len(vals)
    pad = 3 * k
    n0 = lo - pad
    # disp[i] = alpha(n) - n at n = n0 + i on [lo - 3k, hi + 3k], which holds
    # every point the divisor test and the deviation scan read: each tail
    # repeats the displacements of the window's period at its end (see
    # _tail_apply).  alpha(n + c) = alpha(n) + c iff disp agrees at n and
    # n + c, so both compare slices of disp
    wd = list(map(operator.sub, vals, range(lo, lo + w)))
    disp = wd[:k] * 3 + wd + wd[-k:] * 3
    first, last = pad, pad + w - 1
    end = last - k + 1  # the last k window points start here

    d = k  # the smallest divisor that passes; k itself always does
    for c in range(1, k):
        if (
            k % c == 0
            and disp[end + c : last + 1 + c] == disp[end : last + 1]
            and disp[first - c : first + k - c] == disp[first : first + k]
        ):
            d = c
            break
    # the net flow of integers across a cut is chi wherever the cut lies;
    # averaged over one period of cuts deep in the right tail it is minus
    # the mean of disp there, which from the last k window points on has
    # period d (that sum is a multiple of d)
    chi = -(sum(disp[last + 1 : last + 1 + d]) // d)

    # deviations from pure d-periodicity; the outermost two pin the minimal
    # window, which holds the supremum of |disp| as every valid window does
    s, e = first - d - k - 1, last + k + 2
    dev = list(map(operator.ne, disp[s + d : e + d], disp[s:e]))
    if True not in dev:
        m = max(max(wd), -min(wd))
        return d, 0, tuple(_images(k, lo, vals, 0, d - 1)), chi, m
    low = s + dev.index(True)
    high = e - 1 - dev[::-1].index(True) + d  # the window's last point
    cd = disp[low : high + 1]
    if first <= low and high <= last:
        window = vals[low - first : high + 1 - first]
    else:
        window = map(operator.add, cd, range(n0 + low, n0 + high + 1))
    return d, n0 + low, tuple(window), chi, max(max(cd), -min(cd))


def from_window(period: int, lo: int, vals: Sequence[int]) -> Permutation:
    """Build a Permutation from raw fields, validating and canonicalizing.

    A valid window costs one pass over it and its padding, whatever its
    diff_bound: past the period and window-cap checks,
    ``_covers_each_class_once`` checks both end residue systems and the
    residue-class count (see ``validate``), and ``_canonical_fields`` reads
    the smallest period that divides ``period``, the smallest window, the
    shift and the diff bound off one array, the displacements alpha(n) - n
    on the window padded by three periods on each side, by comparing its
    slices.  A window that fails goes to ``validate``, whose violations the
    ``InvalidPermutation`` carries.
    """
    vals = tuple(map(int, vals))
    if not (
        0 < period <= len(vals) <= _max_window.get()
        and _covers_each_class_once(period, vals)
    ):
        bad = validate(period, lo, vals)
        # the message names the first few; the exception carries them all
        shown = "; ".join(f"{v.kind}: {v.detail}" for v in bad[:3])
        more = f" ({len(bad)} violations in all)" if len(bad) > 3 else ""
        raise InvalidPermutation(f"not a bijection: {shown}{more}", bad)
    return Permutation(*_canonical_fields(period, lo, vals))


def canonicalize(p: Permutation) -> Permutation:
    """Return the canonical representative (idempotent on constructor output)."""
    return from_window(p.period, p.lo, p.vals)


# ---------------------------------------------------------------------------
# constructors


def make_from_one_line(values: Sequence[int], off: int = 1) -> Permutation:
    """Permutation acting as ``values`` on [off, off+len-1], identity elsewhere.

    >>> make_from_one_line([2, 3, 1])
    ep(k=1, lo=0; 0 2 3 1 4)
    """
    values = [int(v) for v in values]
    d = len(values)
    if sorted(values) != list(range(off, off + d)):
        raise InvalidPermutation(
            f"invalid one-line: {values} is not a rearrangement of "
            f"[{off}..{off + d - 1}]"
        )
    vals = [off - 1] + values + [off + d]
    return from_window(1, off - 1, vals)


def make_affine(window: Sequence[int], k: int) -> Permutation:
    """Fully periodic permutation with alpha(n + k) = alpha(n) + k everywhere.

    ``window`` gives alpha(0), ..., alpha(k-1) and must hit every residue
    class modulo k exactly once.
    """
    window = [int(v) for v in window]
    if len(window) != k:
        raise InvalidPermutation(
            f"affine window must hold exactly {k} values, got {len(window)}"
        )
    return from_window(k, 0, window)


def make_shift(chi: int) -> Permutation:
    """The translation n -> n - chi (shift chi, no inversions)."""
    return from_window(1, 0, (-chi,))


def identity() -> Permutation:
    return make_shift(0)


def make_sigma_set(s: Iterable[int] | ResidueClass) -> Permutation:
    """Product of disjoint adjacent transpositions (n, n+1) for n in s.

    ``s`` is either a finite set of integers with no two consecutive, or a
    ResidueClass with modulus >= 2.

    >>> make_sigma_set([1])
    ep(k=1, lo=0; 0 2 1 3)
    """
    if isinstance(s, ResidueClass):
        r, k = s.rep, s.modulus
        if k < 2:
            raise InvalidGeneratorSet(
                f"residue class modulus {k} < 2 would swap overlapping pairs"
            )
        _check_window(f"sigma_mod({r},{k}) window", k)
        vals = list(range(r, r + k))
        vals[0], vals[1] = vals[1], vals[0]
        return from_window(k, r, vals)
    members = sorted(set(int(n) for n in s))
    if not members:
        return identity()
    for x, y in zip(members, members[1:]):
        if y == x + 1:
            raise InvalidGeneratorSet(
                f"consecutive indices {x}, {y} give overlapping transpositions"
            )
    lo = members[0] - 1
    hi = members[-1] + 2
    _check_window("sigma window", hi - lo + 1)
    vals = list(range(lo, hi + 1))
    for n in members:
        i = n - lo
        vals[i], vals[i + 1] = vals[i + 1], vals[i]
    return from_window(1, lo, vals)


def make_gamma(m: int, n: int) -> Permutation:
    """Order-preserving two-block shuffle with shift n - m - 1.

    Maps (-inf, -m-1] -> (-inf, -n], [-m, -1] -> [1, m], [0, n-1] -> [-n+1, 0]
    and [n, inf) -> [m+1, inf), each block order-preservingly.  For m = n = 0
    this degenerates to the translation n -> n + 1.
    """
    if m < 0 or n < 0:
        raise InvalidPermutation(f"block sizes must be nonnegative, got ({m}, {n})")
    _check_window(f"gamma({m},{n}) window", m + n + 4)

    def g(t: int) -> int:
        if t <= -m - 1:
            return t + m + 1 - n
        if t <= -1:
            return t + m + 1
        if t <= n - 1:
            return t - n + 1
        return t + m + 1 - n

    lo, hi = -m - 2, n + 1
    return from_window(1, lo, [g(t) for t in range(lo, hi + 1)])


# ---------------------------------------------------------------------------
# basic operations


def apply(p: Permutation, n: int) -> int:
    return _tail_apply(p.period, p.lo, p.vals, n)


def is_affine(p: Permutation) -> bool:
    """Whether alpha(n + k) = alpha(n) + k for every n, k the period: the
    window repeats with its period, and the tail rule carries that on."""
    k, v = p.period, p.vals
    return all(v[i + k] == v[i] + k for i in range(len(v) - k))


def _period_inverse(vals: list[int]) -> list[int]:
    # alpha(i) = r + k t with r in [0, k) gives alpha^-1(r) = i - k t
    k = len(vals)
    out = [0] * k
    for i, v in enumerate(vals):
        out[v % k] = i - v + v % k
    return out


def inverse(p: Permutation) -> Permutation:
    """The inverse bijection (same period after canonicalization).

    A globally periodic p is inverted on one period.  Otherwise the window
    holds the preimages of [min(vals) - k, max(vals) + k], which reach one
    period into each tail class.
    """
    k, vals = p.period, p.vals
    if is_affine(p):
        return from_window(k, 0, _period_inverse(_images(k, p.lo, vals, 0, k - 1)))
    lo_i = min(vals) - k
    size = max(vals) + k - lo_i + 1
    _check_window("inverse window", size)
    return from_window(k, lo_i, _preimages(k, p.lo, vals, lo_i, lo_i + size - 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The bijection n -> p(q(n)); on one common period when both operands
    are globally periodic, as their composition is."""
    k = math.lcm(p.period, q.period)
    if is_affine(p) and is_affine(q):
        # each period is under the cap, their lcm need not be
        _check_window("composition window", k)
        mid = _images(q.period, q.lo, q.vals, 0, k - 1)
        return from_window(k, 0, [_tail_apply(p.period, p.lo, p.vals, v) for v in mid])
    lo_n = min(q.lo, p.lo - q.diff_bound) - k
    hi_n = max(q.hi, p.hi + q.diff_bound) + k
    _check_window("composition window", hi_n - lo_n + 1)
    mid = _images(q.period, q.lo, q.vals, lo_n, hi_n)
    # q moves no point by more than its diff bound
    m0 = lo_n - q.diff_bound
    outer = _images(p.period, p.lo, p.vals, m0, hi_n + q.diff_bound)
    return from_window(k, lo_n, [outer[v - m0] for v in mid])


def shift_of(p: Permutation) -> int:
    """Net number of integers carried from nonnegative to negative."""
    return p.chi


def diff_bound(p: Permutation) -> int:
    """Exact supremum of |alpha(n) - n| over all integers n."""
    return p.diff_bound


def eval_s(p: Permutation, a: int, b: int) -> int:
    """Count integers n >= b with alpha(n) < a.

    Window entries are scanned directly; each tail contributes a closed-form
    count of an arithmetic progression, so the result is exact for every
    (a, b) regardless of how far it sits from the window.

    >>> w0 = make_from_one_line([3, 2, 1])
    >>> eval_s(w0, 3, 2)
    2
    """
    k, lo, vals = p.period, p.lo, p.vals
    hi = p.hi
    count = 0
    for n in range(max(b, lo), hi + 1):
        if vals[n - lo] < a:
            count += 1
    # left tail: n = j - k*m, m >= 1, j in [lo, lo+k)
    for j in range(lo, lo + k):
        vj = vals[j - lo]
        m_hi = (j - b) // k
        m_lo = max(1, (vj - a) // k + 1)
        if m_hi >= m_lo:
            count += m_hi - m_lo + 1
    # right tail: n = j + k*m, m >= 1, j in (hi-k, hi]
    for j in range(hi - k + 1, hi + 1):
        vj = vals[j - lo]
        m_lo = max(1, -((j - b) // k))  # ceil((b - j) / k)
        m_hi = (a - vj - 1) // k
        if m_hi >= m_lo:
            count += m_hi - m_lo + 1
    return count


def _rank_bits(p: Permutation, v0: int, v1: int, b0: int) -> tuple[int, int]:
    """(x, c) that start a sweep of s_p down the columns from b0 over the
    rows [v0, v1]: bit i of x is set when v0 + i = alpha(n) for an n < b0,
    and s_p(v0 + i, b) = c - b + i + (bits of x from i on) + #{n in [b0, b)
    : alpha(n) > v1} while x holds the alpha(n), n < b, on the rows.  For
    s_p(a, b) - #{n < b : alpha(n) >= a} - a + b is constant (a step of a
    or of b moves one term by one), and eval_s fixes it at (v1 + 1, b0);
    values below the rows count nowhere."""
    pre = _preimages(p.period, p.lo, p.vals, v0, v1)
    x = int("".join(["1" if n < b0 else "0" for n in reversed(pre)]), 2)
    return x, v0 - v1 - 1 + b0 + eval_s(p, v1 + 1, b0)


def delta_s(p: Permutation, a: int, b: int) -> int:
    """Mixed second difference of eval_s; equals 1 exactly when alpha(b) = a."""
    return 1 if apply(p, b) == a else 0


# ---------------------------------------------------------------------------
# inversions


def has_inversion(p: Permutation, u: int, v: int) -> bool:
    return u < v and apply(p, u) > apply(p, v)


def _inversion_band(ps: Sequence[Permutation], u_lo: int, n1: int) -> list[list[int]]:
    """Each operand's images on [u_lo, n1], the length checked first."""
    _check_window("inversion band", n1 - u_lo + 1)
    return [_images(p.period, p.lo, p.vals, u_lo, n1) for p in ps]


def first_inversion(
    p: Permutation, q: Permutation, m: int, sign: int
) -> tuple[int, int] | None:
    """The first (u, v), in (u, v) order, with u < v, p(u) > p(v) and
    sign * q(u) > sign * q(v), or None: a common inversion of p and q for
    sign 1, an inversion of p that q does not invert for sign -1.

    ``m`` bounds the diff_bound of some operand that inverts at every hit, so
    hits have v - u <= 2m: beyond that alpha(v) >= v - m > u + m >= alpha(u).
    Deep in the tails the hits repeat diagonally with the period k, so the
    windows with k + 2m + 2 to spare on each side decide the question, and a
    hit right of u_hi = max(hi) + k + 2 repeats at u - k: the first in the
    band has u <= u_hi.  Walking the band down, a Fenwick tree over the ranks
    of p's images keeps the least sign * q(v) of the v passed: u has a hit
    when the least below the rank of p(u) lies under sign * q(u).  The lowest
    such u is the witness row, and a scan right of it gives its first v.
    """
    k = math.lcm(p.period, q.period)
    u_lo = min(p.lo, q.lo) - k - 2 * m - 2
    a, b = _inversion_band((p, q), u_lo, max(p.hi, q.hi) + k + 2 + 2 * m)
    b = [sign * y for y in b]
    size, row = len(a), None
    # the rank of each image of p in the band: the inverse of its sort order
    rank = sorted(range(size), key=sorted(range(size), key=a.__getitem__).__getitem__)
    # tree[r] holds the least b at the ranks [r - lowbit(r), r) of a
    tree = [max(b) + 1] * (size + 1)
    for i in range(size - 1, -1, -1):
        j, y = rank[i], b[i]
        r = j + 1
        while j and tree[j] >= y:
            j &= j - 1
        if j:
            row = i
        # a node's ranks hold its child's, so one at or below y ends the climb
        while r <= size and y < tree[r]:
            tree[r] = y
            r += r & -r
    if row is None:
        return None
    v = next(v for v in range(row + 1, size) if a[v] < a[row] and b[v] < b[row])
    return u_lo + row, u_lo + v


def inversions_in(p: Permutation, u_lo: int, u_hi: int) -> list[tuple[int, int]]:
    """All inversions (u, v) with u in [u_lo, u_hi], in (u, v) order."""
    span = 2 * p.diff_bound
    (a,) = _inversion_band((p,), u_lo, u_hi + span)
    return [
        (u_lo + i, u_lo + j)
        for i, x in enumerate(a[: max(u_hi - u_lo + 1, 0)])
        for j in range(i + 1, i + span + 1)
        if a[j] < x
    ]


def _inversions(seq: Sequence[int]) -> int:
    """Pairs i < j with seq[i] > seq[j]: up to 4096 entries by bisecting into
    a sorted list (its C moves take 0.33 of the Fenwick time at 48 random
    entries, 0.7 at 4096, 1 near 7000, 8 at 131072), else by a Fenwick tree."""
    if len(seq) <= 4096:
        seen: list[int] = []
        count = 0
        for i, x in enumerate(seq):
            j = bisect(seen, x)
            count += i - j
            seen.insert(j, x)
        return count
    # the tree runs over the ranks of the values, so it has len(seq) nodes
    # whatever their spread; equal values rank in seq's order, no inversion
    size = len(seq)
    rank = sorted(range(size), key=sorted(range(size), key=seq.__getitem__).__getitem__)
    tree = [0] * (size + 1)
    count = 0
    for n, r in enumerate(rank):
        i = j = r + 1
        below = 0
        while j:
            below += tree[j]
            j &= j - 1
        count += n - below
        while i <= size:
            tree[i] += 1
            i += i & -i
    return count


def is_finitary(p: Permutation) -> bool:
    """True when the permutation has finitely many inversions.

    Equivalent to the canonical period being 1: a periodic increasing tail
    must advance by exactly 1 per step.
    """
    c = p if p.period == 1 else canonicalize(p)
    return c.period == 1


def inv_count(p: Permutation) -> int:
    """Exact number of inversions; raises for non-finitary permutations."""
    c = p if p.period == 1 else canonicalize(p)
    if c.period != 1:
        raise InfiniteInversions(
            f"{p!r} has period {c.period} > 1, so its inversion set is infinite"
        )
    # the window maps onto [lo - chi, hi - chi] and both tails are n - chi,
    # so every inversion lies inside the window
    return _inversions(c.vals)
