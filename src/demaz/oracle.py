"""Brute-force reference implementations used to cross-check the engine.

Everything in this module recomputes results from first principles with plain
Python loops: literal counting for the rank function, a naive min-plus matrix
product for Demazure products of finite permutations, a fold of the one-step
recurrence for products of adjacent transpositions, and exhaustive search over
S_d for the greedy/stingy extremal characterizations.  None of it shares code
with the slipface engine; that independence is the point.  Generator inputs
(disjoint adjacent transpositions) have direct paths, ``star_sigma`` and
``tll_sigma``, which are kept as an independent cross-check of the word
folds.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import DemazError, OracleExtremum
from .perm import (
    Permutation,
    ResidueClass,
    _check_cells,
    _check_window,
    apply,
    compose,
    from_window,
    make_from_one_line,
    make_sigma_set,
)

__all__ = [
    "oracle_eval_s",
    "oracle_star_sd",
    "oracle_star_word",
    "oracle_greedy_max",
    "oracle_stingy_min",
    "sd_elements",
    "sd_table",
    "sd_leq",
    "star_sigma",
    "tll_sigma",
]


def oracle_eval_s(p: Permutation, a: int, b: int, scan_radius: int = 256) -> int:
    """Count {n >= b : alpha(n) < a} by literally scanning n upward.

    The scan stops at b + scan_radius; a boundary sensitivity check verifies
    that no further n can contribute (alpha(n) >= n - diff_bound).
    """
    _check_window("oracle scan", scan_radius + 1)
    m = p.diff_bound
    top = b + scan_radius
    if top - m < a or top < p.hi:
        raise DemazError(
            f"scan radius {scan_radius} too small for eval at ({a}, {b}); "
            f"needs to clear both a + diff_bound and the window"
        )
    count = 0
    for n in range(b, top + 1):
        if apply(p, n) < a:
            count += 1
    return count


# ---------------------------------------------------------------------------
# finite permutations: one-line tuples over [1, d]


def _check_sd(d: int, *ps: Permutation) -> None:
    """Refuse d < 1, a d over the window cap, and an operand outside S_d:
    one of period 1 and shift 0 that moves some n outside [1, d]."""
    if d < 1:
        raise DemazError(f"S_d needs d >= 1, got {d}")
    _check_window(f"S_{d} one-line", d)
    for p in ps:
        window = enumerate(p.vals, p.lo)
        if p.period != 1 or p.chi != 0 or any(v != n for n, v in window if not 1 <= n <= d):
            raise DemazError(f"inputs do not lie in the requested finite group S_{d}")


def _one_line(p: Permutation, d: int) -> tuple[int, ...]:
    return tuple(apply(p, i) for i in range(1, d + 1))


def _table(line: tuple[int, ...]) -> list[list[int]]:
    """Rank table t[a][b] = #{n in [b, d] : line[n] < a} on [1, d+1]^2.

    Entries outside [1, d] contribute nothing for these index ranges, since a
    finite permutation fixes everything beyond its support.
    """
    d = len(line)
    t = [[0] * (d + 2) for _ in range(d + 2)]
    for a in range(1, d + 2):
        for b in range(1, d + 2):
            c = 0
            for n in range(b, d + 1):
                if line[n - 1] < a:
                    c += 1
            t[a][b] = c
    return t


def _compose_lines(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i] - 1] for i in range(len(q)))


@lru_cache(maxsize=8)
def sd_elements(d: int) -> list[tuple[int, ...]]:
    return [tuple(w) for w in itertools.permutations(range(1, d + 1))]


@lru_cache(maxsize=8)
def _sd_tables(d: int) -> dict[tuple[int, ...], list[list[int]]]:
    return {w: _table(w) for w in sd_elements(d)}


def sd_table(line: tuple[int, ...]) -> list[list[int]]:
    return _table(line)


def sd_leq(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Bruhat comparison of one-line tuples via pointwise rank domination."""
    tu, tv = _table(u), _table(v)
    d = len(u)
    return all(
        tu[a][b] <= tv[a][b] for a in range(1, d + 2) for b in range(1, d + 2)
    )


@lru_cache(maxsize=8)
def _sd_leq_matrix(d: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], bool]:
    elems = sd_elements(d)
    tables = _sd_tables(d)
    out = {}
    rng = range(1, d + 2)
    for u in elems:
        tu = tables[u]
        for v in elems:
            tv = tables[v]
            out[(u, v)] = all(tu[a][b] <= tv[a][b] for a in rng for b in rng)
    return out


def oracle_star_sd(p: Permutation, q: Permutation, d: int) -> Permutation:
    """Demazure product within S_d by a naive min-plus matrix product.

    Multiplies the two rank tables tropically and reads the product
    permutation back off the mixed second difference of the result.
    """
    _check_sd(d, p, q)
    _check_cells(f"S_{d} min-plus product", (d + 1) ** 3)
    u, v = _one_line(p, d), _one_line(q, d)
    tu, tv = _table(u), _table(v)
    prod = [[0] * (d + 2) for _ in range(d + 2)]
    for a in range(1, d + 2):
        for b in range(1, d + 2):
            prod[a][b] = min(tu[a][l] + tv[l][b] for l in range(1, d + 2))
    line = []
    for b in range(1, d + 1):
        hits = [
            a
            for a in range(1, d + 1)
            if prod[a + 1][b] - prod[a][b] - prod[a + 1][b + 1] + prod[a][b + 1] == 1
        ]
        if len(hits) != 1:
            raise DemazError(f"tropical product column {b} is not a permutation")
        line.append(hits[0])
    return make_from_one_line(line)


def oracle_star_word(p: Permutation, word: list[int]) -> Permutation:
    """Fold of the one-step recurrence: absorb each adjacent transposition.

    gamma * sigma_n = gamma sigma_n when gamma(n) < gamma(n+1), else gamma.
    """
    g = p
    for n in word:
        if apply(g, n) < apply(g, n + 1):
            g = compose(g, make_sigma_set([n]))
    return g


def _downset(w: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    leq = _sd_leq_matrix(d)
    return [u for u in sd_elements(d) if leq[(u, w)]]


def _upset(w: tuple[int, ...], d: int) -> list[tuple[int, ...]]:
    leq = _sd_leq_matrix(d)
    return [u for u in sd_elements(d) if leq[(w, u)]]


def _line_inv(w: tuple[int, ...]) -> int:
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def _unique_extremum(
    cands: set[tuple[int, ...]], d: int, want_max: bool
) -> tuple[int, ...]:
    leq = _sd_leq_matrix(d)
    found = None
    # a Bruhat extremum has extreme length, so try those candidates first
    ordered = sorted(cands, key=_line_inv, reverse=want_max)
    for c in ordered:
        if want_max:
            ok = all(leq[(o, c)] for o in cands)
        else:
            ok = all(leq[(c, o)] for o in cands)
        if ok:
            found = c
            break
    if found is None:
        kind = "maximum" if want_max else "minimum"
        raise OracleExtremum(f"candidate set has no Bruhat {kind}: {sorted(cands)}")
    return found


def oracle_greedy_max(p: Permutation, q: Permutation, d: int) -> Permutation:
    """max{ p1 q1 : p1 <= p, q1 <= q } over S_d, by exhaustive enumeration."""
    if d > 6:
        raise DemazError(f"exhaustive S_{d} enumeration refused (d > 6)")
    _check_sd(d, p, q)
    u, v = _one_line(p, d), _one_line(q, d)
    cands = {
        _compose_lines(p1, q1)
        for p1 in _downset(u, d)
        for q1 in _downset(v, d)
    }
    return make_from_one_line(list(_unique_extremum(cands, d, want_max=True)))


def oracle_stingy_min(p: Permutation, q: Permutation, d: int) -> Permutation:
    """min{ p1 q1^-1 : p1 >= p, q1 <= q } over S_d, by exhaustive enumeration."""
    if d > 6:
        raise DemazError(f"exhaustive S_{d} enumeration refused (d > 6)")
    _check_sd(d, p, q)
    u, v = _one_line(p, d), _one_line(q, d)

    def inv_line(w: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(w)
        for i, x in enumerate(w):
            out[x - 1] = i + 1
        return tuple(out)

    cands = {
        _compose_lines(p1, inv_line(q1))
        for p1 in _upset(u, d)
        for q1 in _downset(v, d)
    }
    return make_from_one_line(list(_unique_extremum(cands, d, want_max=False)))


# ---------------------------------------------------------------------------
# products against sigma_S read off p's ascents and descents: slower than
# star and tll, kept as their independent check


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
