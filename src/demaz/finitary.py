"""The word-fold engine: star, tll and tlr of any two permutations, without
slipface grids.

Shifts, which have length 0, are factored out of the operands where that
shrinks the fold, and the two factors fold on one period of M-periodic
permutations in the affine symmetric group, whose simple reflections s_0
... s_{M-1} swap n, n + 1 in every period (s_{M-1} swaps M - 1 and M).
star(x, v) folds a reduced word s_j1 s_j2 ... of v into x from the right,
swapping positions j, j + 1 only where the running result ascends; tll
swaps only where it descends; tlr is the mirror tlr(x, v) =
inverse(tll(inverse(v), inverse(x))) on the period arrays.  The word is
what insertion sort spells on one period of v^-1, then wrap letters
s_{M-1}: O(M + l(v)) list steps.  Each pair takes one of three routes,
which ``affine_product`` proves:

- finitary factor: the operand whose word is folded has period 1 (q for
  star and tll, p for tlr, either for star).  Its shift-0 factor moves
  only an interval W, so the other operand's values on W (for p, through
  the mirror, its values at the points q^-1(W)) are relabelled by rank
  and folded on |W| entries, whatever that operand's period and tails,
  the other operand's period 1 included;
- periodized: the other pairs whose operands both have equal tails (both
  tails of each follow one globally periodic germ, as for every period-1
  or globally periodic permutation and for star(aff, S_d)) fold on the lcm
  K of the periods when both are globally periodic, and else on a
  periodization around the windows, cut back to period K;
- stitched: a pair with a mixed-tail operand closes each such operand at
  each end into an equal-tail permutation, folds the left closures and
  the right closures, and stitches the two results together between the
  windows.

Each fold certifies itself: the word has exactly l(v) letters, and the
result's length is l(x) plus (star) or minus (tll) the letters kept, all
lengths counted independently (the inversions of the period when it maps
onto an interval, otherwise a sort and two inversion counts; for a
finitary factor the inversions on W, which move as the whole length
does).  A periodized result also shows the germ product at both ends of
its cut, a stitched one has equal left and right folds on the windows, and
every result passes ``from_window`` validation.  Size caps are checked
before any folding.  The slipface grid engine (``demazure.grid_product``)
is the reference.
"""

from __future__ import annotations

import math
from bisect import bisect

from .errors import InternalInconsistency, ResourceLimit
from .perm import Permutation, from_window, get_max_window, is_affine
from .perm import _GRID_CELL_CAP, _check_window, _images, _inversions, _preimages
from .perm import _period_inverse, _raw_diff_bound

__all__ = [
    "is_affine",
    "has_equal_tails",
    "affine_product",
]

# (period, lo, vals, add): n -> alpha(n) + add, alpha given by window fields
_Factor = tuple[int, int, tuple[int, ...], int]


def has_equal_tails(p: Permutation) -> bool:
    """Whether both tails follow the same affine germ: the displacement
    alpha(n) - n on the window's first period equals that on its last
    period, residue by residue.  Globally periodic permutations have equal
    tails, and so has every permutation of period 1: a bijection moves both
    of its tails by -chi."""
    k, v = p.period, p.vals
    if k == 1:
        return True
    end = len(v) - k
    # the entry of the last period in the residue class of j
    last = (end + (j - end) % k for j in range(k))
    return all(v[j] - j == v[i] - i for j, i in zip(range(k), last))


def _values(f: _Factor, c: int, size: int) -> list[int]:
    """f on [c, c + size), less c."""
    period, lo, vals, add = f
    t = add - c
    return [v + t for v in _images(period, lo, vals, c, c + size - 1)]


def _interval(vals: list[int]) -> bool:
    """Whether one period maps onto an interval of k integers: then every
    inversion (i, n) with i in the period has n in it too, and a word of
    the element needs no wrap letter s_{k-1}."""
    return max(vals) - min(vals) < len(vals)


def _affine_length(vals: list[int]) -> int:
    """Length of the k-periodic permutation w with period vals: the number
    of inversions (i, n) with 0 <= i < k and i < n.  That is the inversion
    count of vals when one period maps onto an interval.  Otherwise, for i, j
    in [0, k), the class of j holds ceil((w(i) - w(j)) / k) - [j <= i] of
    them when w(j) < w(i) and none else; with w(i) = k q_i + r_i, 0 <= r_i
    < k, the ceiling is q_i - q_j + [r_i > r_j].  Summed over the pairs of
    values, sorted as v_0 < ... < v_{k-1}, that is the sum of floor(v_a / k)
    (2a - k + 1), plus the inversions of vals, less those of the residues
    (v_a mod k)_a: a sort and two inversion counts, not k^2 / 2 terms."""
    k = len(vals)
    if _interval(vals):
        return _inversions(vals)
    w = sorted(vals)
    rise = sum(v // k * (2 * a - k + 1) for a, v in enumerate(w))
    return rise + _inversions(vals) - _inversions([v % k for v in w])


def _affine_word(u: list[int], limit: int) -> list[int]:
    """Sort u, one period of shift 0, to the identity by swaps at its
    descents; the swaps j1, j2, ... spell u^-1 = s_j1 s_j2 ..., a reduced
    word of l(u) letters.  Insertion sort orders the period (moving u[i]
    down to j takes the letters i - 1, ..., j); while the wrap position
    descends, u[k-1] > u[0] + k, the letter k - 1 moves u[0] + k to k - 1
    and u[k-1] - k to 0, which are inserted back leftward and rightward.
    Stops once past limit letters, checked after each insertion."""
    k = len(u)
    word: list[int] = []
    for i in range(1, k):
        moving = u[i]
        j = bisect(u, moving, 0, i)
        if j < i:
            u[j + 1 : i + 1] = u[j:i]
            u[j] = moving
            word += range(i - 1, j - 1, -1)
            if len(word) > limit:
                return word
    while u[k - 1] > u[0] + k and len(word) <= limit:
        word.append(k - 1)
        first, last = u[k - 1] - k, u[0] + k
        j = bisect(u, last, 1, k - 1)
        u[j + 1 :] = u[j : k - 1]
        u[j] = last
        word += range(k - 2, j - 1, -1)
        j = bisect(u, first, 1) - 1
        u[:j] = u[1 : j + 1]
        u[j] = first
        word += range(j)
    return word


def _fold_word(arr: list[int], word: list[int], ascents: bool) -> int:
    """Fold word into arr from the right, swapping where arr ascends (star)
    or descends (tll); returns the letters kept.  k - 1 swaps k - 1 and 0 + k."""
    k = len(arr)
    wrap = k - 1
    kept = 0
    for j in word:
        if j != wrap:
            a, b = arr[j], arr[j + 1]
            if (a < b) == ascents:
                arr[j], arr[j + 1] = b, a
                kept += 1
        else:
            a, b = arr[j], arr[0] + k
            if (a < b) == ascents:
                arr[0], arr[j] = a - k, b
                kept += 1
    return kept


def _affine_fold(x: list[int], v: list[int], ascents: bool) -> list[int]:
    """One period of star(x, v) when ascents, else of tll(x, v), for one
    period [0, k) of two k-periodic permutations."""
    k = len(x)
    # v = T_s v' with T_s: n -> n - s of length 0 and v' of shift 0, so
    # star(x, v) = star(x T_s, v'), and the same for tll
    s = (k * (k - 1) // 2 - sum(v)) // k
    arr = [x[(n - s) % k] + n - s - (n - s) % k for n in range(k)] if s else list(x)
    v = [a + s for a in v] if s else v
    if not (_interval(arr) and _interval(v)):
        m = max(abs(a - i) for f in (x, v) for i, a in enumerate(f))
        # the word has at most 2km letters (an inversion (i, n) of v has n - i
        # < 2m), and _affine_word's insertion sort moves up to k^2 slice
        # entries; the cap bounds both, and the value spread, below k + 4m,
        # that _inversions' Fenwick tree spans
        work = k * max(k, 2 * m)
        if work > _GRID_CELL_CAP:
            raise ResourceLimit(
                f"affine fold of period {k} and diff_bound {m} ({work} steps) "
                "exceeds grid cap"
            )
    length = _affine_length(v)
    # the insertion sort moves one slice entry per letter and the fold reads
    # each letter once; on intervals, as for every finitary factor, this is
    # the only bound of that work
    if length > _GRID_CELL_CAP:
        raise ResourceLimit(
            f"affine fold word of {length} letters exceeds grid cap"
        )
    word = _affine_word(_period_inverse(v), length)
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


def _fold_kind(kind: str, x: list[int], v: list[int]) -> list[int]:
    """One period of kind(x, v) for two k-periodic permutations given on
    [0, k); tlr by the mirror tlr(x, v) = inverse(tll(inverse(v), inverse(x)))."""
    if kind == "tlr":
        r = _affine_fold(_period_inverse(v), _period_inverse(x), ascents=False)
        return _period_inverse(r)
    return _affine_fold(x, v, ascents=kind == "star")


def _margin(p: _Factor, q: _Factor, k: int) -> tuple[int, int]:
    """(P, X) of ``affine_product`` for the factors p and q, K > 1."""
    dp, dq = (max(abs(a + add - n) for n, a in enumerate(vals, lo))
              for _, lo, vals, add in (p, q))
    d, e = max(dp, dq), dp + dq
    return -(-(3 * d + 2 * e) // k) + 1, 2 * d + e


def _layout(k: int, fp: _Factor, fq: _Factor, bent: tuple[bool, bool]):
    """(c, M, X) of ``affine_product`` for the factors fp, fq, of which
    those flagged in bent are not globally periodic, K > 1."""
    spans = [f for f, flag in zip((fp, fq), bent) if flag]
    if not spans:
        return 0, k, 0
    lo = min([start + period for period, start, _, _ in spans])
    hi = max([start + len(vals) - 1 - period for period, start, vals, _ in spans])
    periods, cut = _margin(fp, fq, k)
    return lo - periods * k, k * (-(-(hi - lo + 1) // k) + 2 * periods), cut


def affine_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """star, tll or tlr (by ``kind``) of any two operands.

    Each pair takes one of three routes:

    - finitary factor: the operand whose word the fold reads has period 1
      (q for star and tll; p for tlr, and for star when q has not, by the
      mirrors below).  That operand folds on its own window, whatever the
      other's period and tails (see "Finitary factor" after step 5);
    - periodized: both operands have equal tails, and neither is such a
      factor (tll with a period-1 left operand and tlr with a period-1
      right operand have no such identity);
    - stitched: the others, with a mixed-tail operand (see "Mixed tails"
      at the end).

    With T_chi: n -> n - chi, p = T_u p' and q = q' T_w for a frame (u, w):
    (chi_p, chi_q), in which the factors p', q' have shift 0, or (0, 0),
    whichever gives the smaller M below (a tie the second), so M never
    exceeds its size for p and q themselves.  Let A_p, A_q be the factors'
    germs, K > 1 the lcm of the periods, and W = [lo, hi] span the windows,
    less their first and last periods, of the factors that are not globally
    periodic; each factor equals its germ off W.  Globally periodic pairs
    have no W and fold one period [0, K) as is.  Otherwise, with d_p, d_q
    the diff bounds of the factors, d = max(d_p, d_q), e = d_p + d_q, B = d
    + e, X = 2d + e and P = ceil((B + X) / K) + 1, the fold runs on one
    period of the M-periodic p^, q^ equal to p', q' on [c, c + M), c = lo -
    P K, M = K (ceil((hi - lo + 1) / K) + 2P); their values on [c, c + M) are a
    complete residue system mod M, since p' carries W onto A_p(W).  The
    result is cut to [c + X, c + M - 1 - X] with period K.  Why that is
    r' = kind(p', q'), with s_f(a, b) = #{n >= b : f(n) < a} and t_f(a, b)
    = #{n < b : f(n) >= a} = s_f(a, b) - a + b - chi_f:

    0. s_{T_chi f}(a, b) = s_f(a + chi, b) and s_{f T_chi}(a, b) = s_f(a,
       b - chi), and t likewise, so each optimum in 1 commutes with the
       factoring: kind(p, q) = T_u r' T_w.  Below, p and q stand for p'
       and q'.  ``_affine_fold`` moves its word operand's shift the same
       way before it spells the word.
    1. Each kind is an optimum over l: star min s_p(a, l) + s_q(l, b), tll
       max s_p(a, l) - t_q(l, b), tlr max s_q(l, b) - t_p(a, l).  A step
       l -> l + 1 changes the term by [q^-1(l) >= b] - [p(l) < a],
       [q^-1(l) < b] - [p(l) < a], [q^-1(l) >= b] - [p(l) >= a]: by -1, 0,
       0 below L = [min(a - d_p, b - d_q), max(a + d_p, b + d_q)] and by
       +1, 0, 0 above it, so the optimum is attained on L.
    2. Every result has diff_bound <= e: bounding the two counts on L gives
       s_r(a, b) = 0 for a <= b - e and t_r(a, b) = 0 for a >= b + e.
    3. s_p^(a, l) = s_p(a, l) when l >= c and a <= c + M - d_p (the points
       n >= c + M are >= a under both), s_q^(l, b) = s_q(l, b) when b >= c
       and l <= c + M - d_q, and chi and the diff bounds do not grow, so
       by 1 the slipfaces of r^ and r agree for a, b in [c + 2d,
       c + M - 2d], and by 2 (r(n) = a exactly when the mixed difference of
       s_r at (a, n) is 1) r^(n) = r(n) on [c + X, c + M - 1 - X].
    4. p and A_p agree off W and carry W onto the same set, so s_p(a, l) =
       s_A_p(a, l) for l outside (lo, hi], and likewise for q.  By 1 the
       slipfaces of r and G = kind(A_p, A_q) agree for a, b >= hi + d + 1
       and for a, b <= lo - d, and by 2 r = G off [lo - B, hi + B].
    5. c + X + K <= lo - B and c + M - X - K >= hi + 1 + B, so the cut's
       first and last K entries follow G and the tail rule continues them.

    Before the cut goes to ``from_window``, its first and last K entries
    are checked against G, folded on one period of the germs.

    Finitary factor.  By step 0, and by the mirrors tlr(p, q) =
    inverse(tll(q^-1, p^-1)) and star(p, q) = inverse(star(q^-1, p^-1))
    (from s_{f^-1}(a, b) = t_f(b, a) the optimum in 1 maps to the mirrored
    one), it suffices to fold into a permutation y, of any period and
    tails, a word operand f of period 1 and shift 0: q' for star and tll
    (y = p), p'^-1 for tlr and star (y = q^-1).  f moves only the integers
    of an interval W = [a, b], which it permutes.  So f lies in the
    parabolic subgroup S_W generated by the s_j with j, j + 1 in W, whose
    reduced words are reduced in the whole group (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, ch. 8), and ``_affine_word`` on W
    spells one with l(f) letters and no wrap letter.  Folding a letter s_j
    compares and swaps y(j) and y(j + 1) alone, so the fold leaves y off W
    as it is, rearranges its values on W, and reads only their relative
    order: relabelled by rank to [0, |W|), they fold by the same word as a
    period of |W| entries, and the ranks map back.  For y = p the result is
    p with its values on W folded.  For y = q^-1 the fold's result y'
    carries W onto P = q^-1(W), so its inverse is q off P and carries P
    onto W: with n_0 < n_1 < ... the points of P, x(i) = p'(a + i) - a and
    v(j) = q(n_j) - a, it takes n_j to a + kind(x, v)(j), since the same
    mirror holds on S_|W|, where the kernel folds kind(x, v) (tlr through
    that mirror).

    The certificate stays whole.  The word has l(f) letters (for star
    with y = q^-1, those of v, and the certificate is that of S_|W|), and
    the kernel's lengths are the inversions of y with both ends in W.  An
    adjacent swap inside W toggles one such pair, and changes no count of
    inversions with one end outside W: W is an interval, so for n < a (or
    n > b) the inversions (n, m), m in W, number #{m in W : y(m) < y(n)}
    (or > y(n)), which reads only the set y(W), and the fold keeps that
    set.  So the count on W moving by exactly kept (star) or -kept (tll)
    says that every kept letter raised (lowered) the length of y by one,
    as a fold of a reduced word must.  The result then passes
    ``from_window`` and the chi additivity check of ``demazure._product``.

    Mixed tails.  Let d_p, d_q be the diff bounds of p and q themselves,
    e = d_p + d_q, [lo, hi] span both windows, g+ (g-) the largest diff
    bound of the operands' right (left) germs, which are their
    displacements right of hi (left of lo), X_L = e + g+ and X_R = e + g-
    (``_stitch_margins``), x = hi + X_L and x' = lo - X_R.  Each mixed-tail
    operand f with left germ A (its first period repeated) has the left
    closure f_L: f on (-inf, x], A on [y, inf) with y = x + d_f + d_A + 2,
    and in increasing order on (x, y) the integers neither part takes.
    Its right closure f_R is the mirror: under rho(n) = -1 - n, f_R = rho
    (rho f rho)_L rho with the cut -1 - x', which is the right germ on
    (-inf, y'] and f on [x', inf).  An operand with equal tails is its own
    closure on both sides.  Then kind(p, q) is r_L = kind(p_L, q_L) on
    (-inf, hi] and r_R = kind(p_R, q_R) on (hi, inf), since:

    S1. f_L is a permutation with equal tails, shift chi_f and diff bound
        <= d_f, and it takes on (x, inf) the integers f takes there.  A
        germ has the shift of f: the flow across a cut deep in either tail
        is chi_f.  f((-inf, x]) lies below a = x + d_f + 1 and A([y, inf))
        above it, and t_f(a, x + 1) = 0 = s_A(a, y), so with s - t = a - b
        + chi the integers below a that f misses on (-inf, x] number a - x
        - 1 + chi_f, those from a on that A misses on [y, inf) number y - a
        - chi_f: y - x - 1 together, the length of (x, y).  They lie in
        [x + 1 - d_f, y - 1 + d_A], so placed in order on (x, y) they move
        by at most max(d_f, d_A) = d_f (A's displacements are f's on its
        first period).
    S2. t_f(a, l) = #{n < l : f(n) >= a} reads f only on (-inf, l), and
        s_f(a, l) = t_f(a, l) + a - l + chi_f, so the counts of p_L and p
        agree for l <= x + 1, and those of q_L and q for b <= x + 1.  Let
        a, b <= x + 1 - g+.  For l > x, p(l) >= l - g+ >= a, and so p_L(l)
        >= a by S1; and q^-1(l) >= b, because q(n) <= x for n < b (for n <=
        hi, q(n) <= hi + d_q <= x; beyond, q(n) <= n + g+ <= x), and the
        same holds for q_L, which is q on (-inf, x].  So from l = x + 1 on
        the steps of step 1 are +1 (star), 0 (tll) and 0 (tlr): for both
        pairs each optimum is attained at some l <= x + 1, where their
        terms agree, and s_r(a, b) = s_{r_L}(a, b).
    S3. By step 2, r(n) lies in [n - e, n + e], and r(n) = a exactly when
        the mixed difference of s_r at (a, n) is 1, which reads the cells
        (a or a + 1, n or n + 1): all in S2's region once n <= x - g+ - e
        = hi.  So r = r_L on (-inf, hi].  Mirrored (s_f(a, l) reads f only
        on [l, inf), and t_f = s_f - a + l - chi_f), r = r_R on [lo, inf).
    S4. So both folds are right on [lo, hi], which is checked before the
        stitch: r_L and r_R must agree there.

    The closed windows are checked against the window cap before they are
    built, and the folds of the closures check their own sizes.
    """
    if q.period == 1 and kind != "tlr":
        return _right_factor_product(kind, p, q)
    if p.period == 1 and kind != "tll":
        return _left_factor_product(kind, p, q)
    equal = has_equal_tails(p), has_equal_tails(q)
    if all(equal):
        return _equal_tail_product(kind, p, q)
    return _stitched_product(kind, p, q, equal)


def _moved(f: Permutation, offset: int = 0) -> tuple[int, int] | None:
    """[a, b] less offset, a and b the first and last n with f(n) != n -
    chi; None if f is the shift n -> n - chi."""
    lo, vals, chi = f.lo, f.vals, f.chi
    moved = [i for i, v in enumerate(vals, lo) if v + chi != i]
    return (moved[0] - offset, moved[-1] - offset) if moved else None


def _span(f: Permutation, lo: int, hi: int) -> tuple[int, int]:
    """A window [lo', hi'] of f that holds [lo, hi] with a period on each side
    and, unless f is globally periodic, f's own window: one whose first and
    last periods continue f's tails."""
    lo, hi = lo - f.period, hi + f.period
    if not is_affine(f):
        lo, hi = min(lo, f.lo), max(hi, f.hi)
    _check_window("product window", hi - lo + 1)
    return lo, hi


def _right_factor_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """star or tll of p and a period-1 q = q' T_w: p with its values on the
    span W = [a, b] of q' folded by rank, then T_w."""
    w, k = q.chi, p.period
    span = _moved(q, w)
    if span is None:  # q = T_w
        return from_window(k, p.lo + w, p.vals)
    a, b = span
    lo, hi = _span(p, a, b)
    vals = _images(k, p.lo, p.vals, lo, hi)
    y = vals[a - lo : b - lo + 1]
    order = sorted(y)
    rank = {v: i for i, v in enumerate(order)}
    # q' on W less a: q(n + w) - a
    v = [t - a for t in q.vals[a + w - q.lo : b + w - q.lo + 1]]
    r = _fold_kind(kind, [rank[t] for t in y], v)
    vals[a - lo : b - lo + 1] = [order[i] for i in r]
    return from_window(k, lo + w, vals)


def _left_factor_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """star or tlr of a period-1 p = T_u p' and q: q with its values at the
    points n_0 < n_1 < ... of q^-1(W), W = [a, b] the span of p', rewritten
    by the fold, then T_u."""
    u, k = p.chi, q.period
    span = _moved(p)
    if span is None:  # p = T_u
        return from_window(k, q.lo, [t - u for t in q.vals])
    a, b = span
    pre = _preimages(k, q.lo, q.vals, a, b)
    # by rank of the point: q(n_j) - a
    v = sorted(range(b - a + 1), key=pre.__getitem__)
    points = [pre[i] for i in v]
    lo, hi = _span(q, points[0], points[-1])
    vals = _images(k, q.lo, q.vals, lo, hi)
    x = [t + u - a for t in p.vals[a - p.lo : b - p.lo + 1]]
    for n, t in zip(points, _fold_kind(kind, x, v)):
        vals[n - lo] = a + t
    return from_window(k, lo, [t - u for t in vals])


def _equal_tail_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """``affine_product`` of two operands with equal tails."""
    k = math.lcm(p.period, q.period)
    bent = (not is_affine(p), not is_affine(q))
    # the factors p'(n) = p(n) + u and q'(n) = q(n + w) of each frame (u, w)
    options = []
    for u, w in ((0, 0), (p.chi, q.chi)):
        fp, fq = (p.period, p.lo, p.vals, u), (q.period, q.lo - w, q.vals, 0)
        options.append((_layout(k, fp, fq, bent), fp, fq, u, w))
    (c, size, cut), fp, fq, u, w = min(options, key=lambda o: o[0][1])
    if size > (cap := get_max_window()):
        raise ResourceLimit(f"affine period {size} exceeds window cap {cap}")
    r = _fold_kind(kind, _values(fp, c, size), _values(fq, c, size))
    if any(bent):
        # the germs: each factor's first period repeated, on [0, K)
        germs = [_values((t, lo, v[:t], add), 0, k) for t, lo, v, add in (fp, fq)]
        g = _fold_kind(kind, *germs)
        for i in (*range(cut, cut + k), *range(size - cut - k, size - cut)):
            n = c + i
            if r[i] + c != g[n % k] + n - n % k:
                raise InternalInconsistency(
                    f"periodized {kind} of {p!r} and {q!r} leaves the germ "
                    f"product at {n}"
                )
    return from_window(k, c + cut + w, [a + c - u for a in r[cut : size - cut]])


def _germ_bounds(f: Permutation) -> tuple[int, int]:
    """The diff bounds of f's left and right germs: its largest
    displacements left and right of its window."""
    k, w = f.period, len(f.vals)
    return (_raw_diff_bound(k, f.lo, f.vals[:k]),
            _raw_diff_bound(k, f.lo + w - k, f.vals[w - k :]))


def _stitch_margins(p: Permutation, q: Permutation) -> tuple[int, int]:
    """(X_L, X_R) of ``affine_product``'s mixed-tail case."""
    e = p.diff_bound + q.diff_bound
    (pl, pr), (ql, qr) = _germ_bounds(p), _germ_bounds(q)
    return e + max(pr, qr), e + max(pl, ql)


def _reversed(p: Permutation) -> Permutation:
    """rho p rho with rho(n) = -1 - n: p read backwards, its right tail on
    the left."""
    return from_window(p.period, -1 - p.hi, [-1 - v for v in reversed(p.vals)])


def _close_left(p: Permutation, x: int) -> Permutation:
    """p on (-inf, x], its left germ A from y = x + d_p + d_A + 2 on, and the
    integers neither takes in increasing order between (S1 of
    ``affine_product``)."""
    k, lo, vals = p.period, p.lo, p.vals
    d, da = p.diff_bound, _germ_bounds(p)[0]
    a, y = x + d + 1, x + d + da + 2
    start = min(lo, x - k + 1)
    if (size := y + k - start) > (cap := get_max_window()):
        raise ResourceLimit(f"closed window of {size} entries exceeds cap {cap}")
    # the integers below a come from p on (x, x + 2d], those from a on
    # from A on [a - d_A, y)
    head = _images(k, lo, vals, start, x + 2 * d)
    germ = _images(k, lo, vals[:k], a - da, y + k - 1)
    cut = y - (a - da)
    gap = [v for v in head[x + 1 - start :] if v < a]
    gap += [v for v in germ[:cut] if v >= a]
    gap.sort()
    return from_window(k, start, head[: x + 1 - start] + gap + germ[cut:])


def _stitched_product(
    kind: str, p: Permutation, q: Permutation, equal: tuple[bool, bool]
) -> Permutation:
    """``affine_product`` of a pair with a mixed-tail operand: r_L up to hi
    and r_R after it, checked to agree on [lo, hi]."""
    lo, hi = min(p.lo, q.lo), max(p.hi, q.hi)
    margin_l, margin_r = _stitch_margins(p, q)
    x, x_ = hi + margin_l, lo - margin_r
    (pl, pr), (ql, qr) = (
        (f, f) if eq
        else (_close_left(f, x), _reversed(_close_left(_reversed(f), -1 - x_)))
        for f, eq in zip((p, q), equal)
    )
    rl, rr = _equal_tail_product(kind, pl, ql), _equal_tail_product(kind, pr, qr)
    left, right = (_images(r.period, r.lo, r.vals, lo, hi) for r in (rl, rr))
    if left != right:
        i = next(i for i, (u, v) in enumerate(zip(left, right)) if u != v)
        raise InternalInconsistency(
            f"stitched {kind} of {p!r} and {q!r}: the left and right folds "
            f"differ at {lo + i} ({left[i]} against {right[i]})"
        )
    k = math.lcm(p.period, q.period)
    w0, w1 = min(rl.lo, hi + 1) - k, max(rr.hi, hi) + k
    vals = _images(rl.period, rl.lo, rl.vals, w0, hi)
    vals += _images(rr.period, rr.lo, rr.vals, hi + 1, w1)
    return from_window(k, w0, vals)
