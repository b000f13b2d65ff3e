"""The word-fold engine: star, tll and tlr of any two permutations, without
slipface grids.

Shifts, which have length 0, are factored out of the operands, and the two
factors fold on one period of M-periodic permutations in the affine
symmetric group, whose simple reflections s_0 ... s_{M-1} swap n, n + 1 in
every period (s_{M-1} swaps M - 1 and M).  star(x, v) folds a reduced word
s_j1 s_j2 ... of v into x from the right, swapping positions j, j + 1 only
where the running result ascends; tll swaps only where it descends; tlr is
the mirror tlr(x, v) = inverse(tll(inverse(v), inverse(x))) on the period
arrays.  The word is what insertion sort spells on one period of v^-1,
then wrap letters s_{M-1}: O(M + l(v)) list steps.  Each pair takes one of
two routes, which ``affine_product`` proves:

- finitary factor: the operand whose word is folded has period 1 (q for
  star and tll, p for tlr, either for star).  Its shift-0 factor moves
  only an interval W, so the other operand's values on W (for p, through
  the mirror, its values at the points q^-1(W)) are relabelled by rank
  and folded on |W| entries, whatever that operand's period and tails,
  the other operand's period 1 included;
- germs and a finitary middle: every other pair.  Far out on each side
  the result is the product of the operands' germs (the affine
  permutations their tails follow), folded on one period of the lcm K of
  the periods; near the windows it is the product of the two operands
  truncated to finitary permutations, one fold with no wrap letter.  Two
  globally periodic operands are their own germs and take the germ fold
  alone.

Each fold certifies itself: the word has exactly l(v) letters, and the
result's length is l(x) plus (star) or minus (tll) the letters kept, all
lengths counted independently (the inversions of the period when it maps
onto an interval, otherwise a sort and two inversion counts; for a
finitary factor the inversions on W, which move as the whole length
does).  The finitary middle also shows the germ products on its first and
last periods, and every result passes ``from_window`` validation.  Size
caps are checked before any folding.  The slipface grid engine
(``demazure.grid_product``) is the reference.
"""

from __future__ import annotations

import math
from bisect import bisect

from .errors import InternalInconsistency
from .perm import Permutation, from_window, is_affine
from .perm import _check_cells, _check_window, _images, _inversions, _preimages
from .perm import _period_inverse

__all__ = ["affine_product"]

# (period, lo, vals, add): n -> alpha(n) + add, alpha given by window fields
_Factor = tuple[int, int, tuple[int, ...], int]


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
    length = _affine_length(v)
    # the insertion sort moves one slice entry per letter, in the wrap loop
    # too, and the fold reads each letter once: the cap on the letters
    # bounds all of that work
    _check_cells("affine fold word", length)
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


def affine_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """star, tll or tlr (by ``kind``) of any two operands.

    Each pair takes one of two routes:

    - finitary factor: the operand whose word the fold reads has period 1
      (q for star and tll; p for tlr, and for star when q has not, by the
      mirrors below).  That operand folds on its own window, whatever the
      other's period and tails (see "Finitary factor" after step 6);
    - germs and a finitary middle: the others, tll with a period-1 left
      operand and tlr with a period-1 right one among them (they have no
      such identity).  Two globally periodic operands fold on one period
      [0, K) as they are, K the lcm of the periods.

    With T_chi: n -> n - chi, p = T_u p' and q = q' T_w for u = chi_p and w
    = chi_q: the factors p'(n) = p(n) + u and q'(n) = q(n + w) have shift
    0.  Let d_p, d_q be their diff bounds, d = max(d_p, d_q), e = d_p + d_q,
    B = d + e, X = B + K (``_germ_margin``), and [lo, hi] span the windows
    of the factors that are not globally periodic; a globally periodic one
    equals its germ everywhere.  A factor f has the left germ A_f (the
    window's first period repeated) and the right germ A'_f (its last);
    G = kind(A_p', A_q') and G' = kind(A'_p', A'_q') fold on one period [0,
    K) of the germs, once when both pairs coincide.  The truncation f_T of
    a factor f is f on [x0, x1] = [lo - X - B, hi + X + B], the identity
    off [y0, y1] = [x0 - d - 1, x1 + d + 1], and on the gaps between, in
    increasing order, the integers that neither part takes, the smallest
    d + 1 on the left.  The middle kind(p'_T, q'_T) folds on the M = y1 -
    y0 + 1 entries of [y0, y1], and r' = kind(p', q') is the middle on [lo
    - X, hi + X] read with period K.  Why, with s_f(a, b) = #{n >= b : f(n)
    < a} and t_f(a, b) = #{n < b : f(n) >= a} = s_f(a, b) - a + b - chi_f:

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
       s_r(a, b) = 0 for a <= b - e and t_r(a, b) = 0 for a >= b + e.  So
       r(n) is the a in [n - e, n + e] at which the mixed difference of s_r
       at (a, n) is 1, which reads the rows a, a + 1 and the columns n, n + 1.
    3. Germs.  Each factor equals its left germ on (-inf, lo]: a globally
       periodic one everywhere, another up to the end of its window's
       first period, which lo precedes.  The germs have the factors' shift
       0, the flow across a cut deep in a tail, and diff bounds at most
       the factors' (their displacements are the factors' on a period).
       t_f(a, l) reads f only on (-inf, l), so the counts of p and A_p
       agree for l <= lo + 1, and those of q and A_q for b <= lo + 1.  By
       1 both optima are attained at some l <= lo + 1 when a, b <= lo + 1
       - d, and by 2 r = G on (-inf, lo - B].  Mirrored (s_f(a, l) reads f
       only on [l, inf)), r = G' on [hi + B, inf).
    4. Truncations.  f carries [x0, x1] into [x0 - d, x1 + d], and takes
       there every integer of [x0 + d, x1 - d].  Of [y0, x0 - 1] it takes
       there the values f(n) < x0 of the n >= x0, t of them; with shift 0
       as many n < x0 have f(n) >= x0, and their values, at most x0 + d -
       1, are the integers of [x0, x0 + d - 1] it does not take there.  So
       d + 1 integers of [y0, x0 + d - 1] fill the left gap and, mirrored,
       d + 1 of [x1 - d + 1, y1] the right one: f_T permutes [y0, y1] with
       shift 0, its left gap values move by 0 to d, its right ones by -d
       to 0, and its diff bound is at most d_f.  It is f closed at each
       end by the shift n -> n - chi_f, whose diff bound is 0.
    5. Middle.  For a in [x0 + d, x1 - d + 1] the counts s_p(a, l) and
       s_{p_T}(a, l) agree for every l: if l >= x0, the points n > x1 of
       both map to at least x1 - d + 1 >= a, and p = p_T on [l, x1]; if l <
       x0, the points n < l of both map below x0 + d <= a, so t = 0 for
       both.  For b in [x0, x1 + 1] the counts s_q(l, b) and s_{q_T}(l, b)
       agree for every l: the points of [b, x1] agree, and #{n > x1 : g(n)
       < l} is 0 for both g when l <= x1 - d + 1, and else l - x1 - 1 +
       #{n in [x0, x1] : g(n) >= l}, the flow of a shift-0 g across x1 + 1
       (the points n < x0 of both map below l).  So every term of each
       optimum in 1 agrees for such a and b, and by 2, which holds for the
       truncations too, r = kind(p_T, q_T) on [x0 + B, x1 - B] = [lo - X,
       hi + X].
    6. X >= B + K, so the first and last K entries of [lo - X, hi + X] lie
       in (-inf, lo - B] and [hi + B, inf), follow G and G', whose periods
       divide K, and the tail rule continues them.  They are checked
       against G and G' before the result goes to ``from_window``.

    p_T and q_T lie in the symmetric group of [y0, y1], a parabolic
    subgroup whose reduced words are reduced in the whole group
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 8), so their
    values less y0 fold as one period of M entries, as a finitary factor
    does.  The truncated window is checked against the window cap before
    it is built, and each fold checks its own sizes.

    Finitary factor.  By step 0, and by the mirrors tlr(p, q) =
    inverse(tll(q^-1, p^-1)) and star(p, q) = inverse(star(q^-1, p^-1))
    (from s_{f^-1}(a, b) = t_f(b, a) the optimum in 1 maps to the mirrored
    one), it suffices to fold into a permutation y, of any period and
    tails, a word operand f of period 1 and shift 0: q' for star and tll
    (y = p), p'^-1 for tlr and star (y = q^-1).  f moves only the integers
    of an interval W = [a, b], which it permutes.  So f lies in the
    parabolic subgroup S_W generated by the s_j with j, j + 1 in W, whose
    reduced words are reduced in the whole group, and ``_affine_word`` on W
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
    """
    if q.period == 1 and kind != "tlr":
        return _right_factor_product(kind, p, q)
    if p.period == 1 and kind != "tll":
        return _left_factor_product(kind, p, q)
    return _germ_product(kind, p, q)


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


def _germ_margin(b: int, k: int) -> int:
    """X of ``affine_product``: how far past [lo, hi] the middle is read."""
    return b + k


def _truncated(f: _Factor, x0: int, x1: int, d: int) -> list[int]:
    """f_T of ``affine_product`` on [y0, y1] = [x0 - d - 1, x1 + d + 1], less
    y0: f on [x0, x1], and on each gap the d + 1 integers of its side that
    f does not take there, in increasing order.  Those of the left gap lie
    in [y0, x0 + d - 1], which f takes only at the first 2d points; the
    right gap mirrors it."""
    period, lo, vals, add = f
    y0 = x0 - d - 1
    mid = [v + add - y0 for v in _images(period, lo, vals, x0, x1)]
    size = len(mid) + 2 * d + 2
    head, tail = set(mid[: 2 * d]), set(mid[len(mid) - 2 * d :])
    left = [v for v in range(2 * d + 1) if v not in head]
    right = [v for v in range(size - 2 * d - 1, size) if v not in tail]
    return left + mid + right


def _germ_product(kind: str, p: Permutation, q: Permutation) -> Permutation:
    """``affine_product`` by germ folds and a finitary middle."""
    k = math.lcm(p.period, q.period)
    _check_window("germ period", k)
    u, w = p.chi, q.chi
    # the windows of the factors p'(n) = p(n) + u and q'(n) = q(n + w)
    bent = [(f.lo - s, f.hi - s) for f, s in ((p, 0), (q, w)) if not is_affine(f)]
    if not bent:
        x, v = (_images(f.period, f.lo, f.vals, 0, k - 1) for f in (p, q))
        return from_window(k, 0, _fold_kind(kind, x, v))
    fp, fq = (p.period, p.lo, p.vals, u), (q.period, q.lo - w, q.vals, 0)
    dp, dq = (max(abs(a + add - n) for n, a in enumerate(vals, lo))
              for _, lo, vals, add in (fp, fq))
    d = max(dp, dq)
    b = d + dp + dq
    lo, hi = min(a for a, _ in bent), max(z for _, z in bent)
    x = _germ_margin(b, k)
    x0, x1 = lo - x - b, hi + x + b
    _check_window("truncated window", x1 - x0 + 2 * d + 3)
    # the germs, each factor's first and last period repeated, on [0, K)
    left = [_values((t, s, v[:t], a), 0, k) for t, s, v, a in (fp, fq)]
    right = [
        _values((t, s + len(v) - t, v[len(v) - t :], a), 0, k) for t, s, v, a in (fp, fq)
    ]
    g_left = _fold_kind(kind, *left)
    g_right = g_left if right == left else _fold_kind(kind, *right)
    mid = _fold_kind(kind, _truncated(fp, x0, x1, d), _truncated(fq, x0, x1, d))
    # [lo - X, hi + X] less y0 = x0 - d - 1
    y0, i = x0 - d - 1, b + d + 1
    out = mid[i : len(mid) - i]
    c = lo - x
    for j in (*range(k), *range(len(out) - k, len(out))):
        n, g = c + j, g_left if j < k else g_right
        if out[j] + y0 != g[n % k] + n - n % k:
            raise InternalInconsistency(
                f"{kind} of {p!r} and {q!r} leaves the germ product at {n + w}"
            )
    return from_window(k, c + w, [a + y0 - u for a in out])
