"""Core permutation representation: construction, evaluation, counting."""

import contextvars
import doctest
import importlib
import threading
from functools import partial

import numpy as np
import pytest

from conftest import (
    inversion_scan_pairs,
    line_of,
    mixed_tails,
    rand_affine,
    rand_line,
    sd_lines,
    sym,
    zoo_perm,
)

from demaz import (
    InfiniteInversions,
    InvalidGeneratorSet,
    InvalidPermutation,
    ResidueClass,
    RenderSpec,
    ResourceLimit,
    apply,
    canonicalize,
    compose,
    delta_s,
    diff_bound,
    eval_s,
    essential_cells,
    from_window,
    get_max_window,
    has_inversion,
    identity,
    inv_count,
    inverse,
    inversions_in,
    is_finitary,
    make_affine,
    make_from_one_line,
    make_gamma,
    make_shift,
    make_sigma_set,
    render,
    set_max_window,
    sf_eval_grid,
    sf_from_perm,
    sf_star,
    shift_of,
    star,
    validate,
)
from demaz import perm, slipface
from demaz.oracle import oracle_eval_s
from demaz.perm import (
    Violation,
    _canonical_fields,
    _covers_each_class_once,
    _images,
    _preimages,
    _raw_diff_bound,
    _tail_apply,
)
from demaz.slipface import rank_table


def test_identity_fixes_everything():
    e = identity()
    assert all(apply(e, n) == n for n in range(-20, 21))
    assert shift_of(e) == 0
    assert inv_count(e) == 0


def test_shift_moves_down_by_chi():
    s = make_shift(3)
    assert apply(s, 10) == 7
    assert shift_of(s) == 3
    # order preserving, so no inversions despite acting everywhere
    assert inv_count(s) == 0
    assert inverse(s) == make_shift(-3)


def test_one_line_embedding():
    p = make_from_one_line((5, 6, 2, 8, 3, 9, 7, 4, 1))
    assert apply(p, 1) == 5
    assert apply(p, 9) == 1
    assert apply(p, 10) == 10
    assert apply(p, 0) == 0
    assert shift_of(p) == 0
    assert is_finitary(p)


def test_one_line_offset():
    p = make_from_one_line((5, 6, 4), off=4)
    # acts on {4,5,6} as the 3-cycle
    assert [apply(p, n) for n in range(3, 8)] == [3, 5, 6, 4, 7]


def test_affine_periodicity():
    p = make_affine([3, -2], 2)
    for n in range(-8, 9):
        assert apply(p, n + 2) == apply(p, n) + 2


def test_compose_is_function_composition(rng):
    for _ in range(40):
        p, q = zoo_perm(rng), zoo_perm(rng)
        r = compose(p, q)
        for n in range(-12, 13):
            assert apply(r, n) == apply(p, apply(q, n))


def test_inverse_involution(rng):
    for _ in range(40):
        p = zoo_perm(rng)
        assert inverse(inverse(p)) == p
        assert compose(p, inverse(p)) == identity()


def test_inverse_of_compose(rng):
    for _ in range(30):
        p, q = zoo_perm(rng), zoo_perm(rng)
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


def test_eval_matches_brute_count(rng):
    for _ in range(12):
        p = zoo_perm(rng)
        for a in range(-6, 7, 3):
            for b in range(-6, 7, 3):
                assert eval_s(p, a, b) == oracle_eval_s(p, a, b)


def test_eval_column_recurrence(rng):
    for _ in range(12):
        p = zoo_perm(rng)
        for a in range(-5, 6):
            for b in range(-5, 6):
                step = 1 if apply(p, b) < a else 0
                assert eval_s(p, a, b) == eval_s(p, a, b + 1) + step


def test_delta_marks_the_graph(rng):
    for _ in range(12):
        p = zoo_perm(rng)
        for b in range(-5, 6):
            for a in range(-8, 9):
                assert delta_s(p, a, b) == (1 if apply(p, b) == a else 0)


def test_duality_identity(rng):
    # s_p(a,b) - s_{p^-1}(b,a) = chi + a - b
    for _ in range(15):
        p = zoo_perm(rng)
        pi = inverse(p)
        chi = shift_of(p)
        for a in range(-6, 7, 2):
            for b in range(-6, 7, 2):
                assert eval_s(p, a, b) - eval_s(pi, b, a) == chi + a - b


def test_inv_count_known_values():
    assert inv_count(make_from_one_line((4, 3, 2, 1))) == 6
    assert inv_count(make_gamma(3, 5)) == 15
    assert inv_count(make_gamma(2, 3)) == 6
    assert inv_count(make_sigma_set([1, 5])) == 2
    # brute pair scan over [1,9]^2: 4+4+1+4+1+3+2+1
    assert inv_count(make_from_one_line((5, 6, 2, 8, 3, 9, 7, 4, 1))) == 20


@pytest.mark.parametrize("n", [0, 1, 48, 4096, 4097, 6000])
def test_inversion_count_on_both_sides_of_the_bisect_limit(rng, n):
    # _inversions bisects up to 4096 entries and uses a Fenwick tree above;
    # both must match a pairwise numpy count, on shuffled values with gaps
    # and repeats and on a nearly sorted run
    shuffled = [rng.randrange(-2 * n, 2 * n + 1) for _ in range(n)]
    nearly = list(range(n))
    for _ in range(n // 50):
        i, j = rng.randrange(n), rng.randrange(n)
        nearly[i], nearly[j] = nearly[j], nearly[i]
    for seq in (shuffled, nearly):
        a = np.array(seq, dtype=np.int64)
        pairs = sum(
            int(np.count_nonzero(np.triu(a[i : i + 512, None] > a[None, :], i + 1)))
            for i in range(0, n, 512)
        )
        assert perm._inversions(seq) == pairs


def test_inv_count_infinite():
    with pytest.raises(InfiniteInversions):
        inv_count(make_sigma_set(ResidueClass(0, 2)))


def test_inversions_listing(rng):
    for line in sd_lines(3):
        p = make_from_one_line(line)
        pairs = inversions_in(p, 1, 3)
        assert len(pairs) == inv_count(p)
        for u, v in pairs:
            assert u < v and apply(p, u) > apply(p, v)
            assert has_inversion(p, u, v)


def test_canonical_equality():
    assert from_window(2, 0, [0, 1]) == identity()
    assert from_window(1, 5, [5]) == identity()
    p = make_affine([3, -2], 2)
    doubled = from_window(4, 0, [3, -2, 5, 0])
    assert doubled == p
    assert canonicalize(doubled).period == 2


def test_window_translation_invariance():
    # same function described from two window starts
    a = from_window(2, 0, [1, 0])
    b = from_window(2, 2, [3, 2])
    assert a == b


def test_validate_reports_collisions():
    bad = validate(2, 0, [0, 2])
    assert bad and all(v.kind for v in bad)
    assert validate(2, 0, [1, 0]) == []


def test_bad_window_raises():
    with pytest.raises(InvalidPermutation):
        from_window(2, 0, [0, 2])
    with pytest.raises(InvalidPermutation):
        make_from_one_line((1, 1, 2))


def test_sigma_set_rejects_adjacent_overlap():
    with pytest.raises(InvalidGeneratorSet):
        make_sigma_set([1, 2])
    with pytest.raises(InvalidGeneratorSet):
        make_sigma_set(ResidueClass(0, 1))


def test_sigma_set_swaps():
    p = make_sigma_set([0, 4])
    assert apply(p, 0) == 1 and apply(p, 1) == 0
    assert apply(p, 4) == 5 and apply(p, 5) == 4
    assert apply(p, 2) == 2
    q = make_sigma_set(ResidueClass(1, 3))
    for n in (-2, 1, 4, 7):
        assert apply(q, n) == n + 1 and apply(q, n + 1) == n


def test_diff_bound_bounds_displacement(rng):
    for _ in range(25):
        p = zoo_perm(rng)
        m = diff_bound(p)
        assert all(abs(apply(p, n) - n) <= m for n in range(-15, 16))


def test_two_block_shift():
    for m in range(5):
        for n in range(5):
            assert shift_of(make_gamma(m, n)) == n - m - 1


def test_star_on_disjoint_supports_is_compose(rng):
    p = make_from_one_line((2, 1))
    q = make_from_one_line((11, 10), off=10)
    assert star(p, q) == compose(p, q)


def test_line_of_helper(rng):
    for _ in range(10):
        d = rng.randint(2, 5)
        line = tuple(rng.sample(range(1, d + 1), d))
        assert line_of(make_from_one_line(line), d) == line
    assert rand_affine(rng, 3).period in (1, 3)


def _validate_by_scan(k, lo, vals):
    """The per-target preimage scan validate replaced; the reference for it."""
    from demaz.perm import _raw_diff_bound, _tail_apply

    out = []
    hi = lo + len(vals) - 1
    m = _raw_diff_bound(k, lo, vals)
    ev = lambda n: _tail_apply(k, lo, vals, n)
    seen = {}
    for n in range(lo - 2 * m - 2 * k, hi + 2 * m + 2 * k + 1):
        v = ev(n)
        if v in seen:
            out.append(("duplicate-image", f"alpha({seen[v]}) = alpha({n}) = {v}"))
        seen[v] = n
    for a in range(lo - m - k, hi + m + k + 1):
        hits = [n for n in range(a - m, a + m + 1) if ev(n) == a]
        if not hits:
            out.append(("missing-preimage", f"no n with alpha(n) = {a}"))
        elif len(hits) > 1:
            out.append(("duplicate-preimage", f"alpha({hits}) all equal {a}"))
    return out


def test_validate_matches_the_preimage_scan(rng):
    checked = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(k, 7)
        vals = [rng.randint(-6, 6) for _ in range(n)]
        if len({v % k for v in vals[:k]}) < k or len({v % k for v in vals[-k:]}) < k:
            continue
        lo = rng.randint(-4, 4)
        got = [tuple(v) for v in validate(k, lo, vals)]
        assert got == _validate_by_scan(k, lo, vals), (k, lo, vals)
        checked += 1
    assert checked > 50


def test_inverse_matches_the_preimage_scan(rng):
    for _ in range(60):
        p = zoo_perm(rng)
        m, k = p.diff_bound, p.period
        lo_i = p.lo - m - k
        want = [
            next(n for n in range(a - m, a + m + 1) if apply(p, n) == a)
            for a in range(lo_i, p.hi + m + k + 1)
        ]
        assert inverse(p) == from_window(k, lo_i, want)
    # a shift by 10^6: the scan's window of 2*10^6 + 3 targets exceeds the
    # window cap, and each target's scan would take 2*10^6 steps; the
    # preimages are known in closed form
    big = make_shift(10**6)
    assert repr(inverse(big)) == "ep(k=1, lo=0; 1000000)"
    assert inverse(make_shift(-(10**6))) == big
    a = make_affine([4, -1, 3], 3)
    for chi in (10**5, -(10**5)):
        p = compose(make_shift(chi), a)
        q = inverse(p)
        assert all(apply(q, apply(p, n)) == n for n in range(-30, 30))
        assert all(apply(p, apply(q, t)) == t for t in range(-chi - 30, -chi + 30))
        assert q == compose(inverse(a), make_shift(-chi))


def test_globally_periodic_operands_invert_and_compose_on_one_period(rng):
    # values far apart once gave an inverse or composition window over the
    # cap, though the canonical answers have two entries
    far = make_affine([0, 2000001], 2)
    assert inverse(far) == make_affine([0, -1999999], 2)
    assert compose(far, inverse(far)) == identity()
    huge = make_affine([0, 10**20 + 1], 2)
    assert compose(make_shift(1), huge) == make_affine([-1, 10**20], 2)
    assert inverse(huge) == make_affine([0, 1 - 10**20], 2)
    for _ in range(60):
        p = rand_affine(rng, rng.randint(1, 6), 3)
        p = compose(make_shift(rng.randint(-9, 9)), p)
        q = rand_affine(rng, rng.randint(1, 4), 3)
        r, pi = compose(p, q), inverse(p)
        for n in range(-20, 21):
            assert apply(r, n) == apply(p, apply(q, n)), (p, q)
            assert apply(pi, apply(p, n)) == n, p


def _counter_pool(rng):
    """Zoo members, mixed tails, star(affine, S_d) and S_d with windows near
    +-10^4, each also shifted by +-10^20."""
    pool = [zoo_perm(rng) for _ in range(30)] + [mixed_tails(rng) for _ in range(10)]
    pool += [star(rand_affine(rng, k, 1), sym(rng, 4, rng.randint(-4, 4)))
             for k in (2, 3, 5, 7)]
    pool += [sym(rng, 9, off, rng.randint(-50, 50)) for off in (10**4, -(10**4))]
    shifts = (make_shift(10**20), make_shift(-(10**20)))
    return pool + [compose(t, p) for p in pool[::4] for t in shifts]


def test_images_and_preimages_match_pointwise(rng):
    for p in _counter_pool(rng):
        q = inverse(p)
        for c in (p.lo - 3 * p.period - 9, p.hi - 5, -(10**20), 10**20, p.lo + 10**6):
            for size in (0, 1, p.period + 1, len(p.vals) + 25):
                span = (c, c + size - 1)
                assert _images(p.period, p.lo, p.vals, *span) == [
                    apply(p, n) for n in range(c, c + size)
                ], (p, span)
                assert _preimages(p.period, p.lo, p.vals, *span) == [
                    apply(q, a) for a in range(c, c + size)
                ], (p, span)


def _rendered_counts(p, a0, a1, b0, b1):
    """s_p on [a0, a1] x [b0, b1], rows ascending, read back from the
    values of render's PGM heatmap."""
    lines = render(p, RenderSpec(a0, a1, b0, b1, fmt="pgm")).splitlines()
    return [list(map(int, line.split())) for line in reversed(lines[3:])]


def test_render_counts_match_eval_s(rng):
    checked = 0
    for p in _counter_pool(rng):
        chi, lo, hi = p.chi, p.lo, p.hi
        # columns across, left of, right of and far from the window; rows
        # near the columns, near the window's values and at +-10^20
        for b0 in (lo - 4, lo - 40, hi + 30, -(10**20), 10**20, lo - 10**6):
            b1 = b0 + rng.randint(0, 11)
            for a0 in (
                b0 - chi + rng.randint(-15, 5),
                rng.choice(p.vals) + rng.randint(-4, 2),
                rng.choice((-1, 1)) * 10**20 + rng.randint(-30, 30),
            ):
                a1 = a0 + rng.randint(0, 9)
                got = _rendered_counts(p, a0, a1, b0, b1)
                assert got == [
                    [eval_s(p, a, b) for b in range(b0, b1 + 1)]
                    for a in range(a0, a1 + 1)
                ], (p, a0, b0)
                checked += sum(map(len, got))
    assert checked > 10000


def test_render_builds_no_list_longer_than_a_side(monkeypatch):
    """The operand's values reach +-10^20 while the rectangles are 4 x 4 and
    6 x 3: every image and preimage list that render builds has a side's
    length, and the counts are eval_s's."""
    p = make_affine([10**20, 1 - 10**20], 2)
    built = []

    def recording(real):
        def spy(period, lo, vals, n0, n1):
            out = real(period, lo, vals, n0, n1)
            built.append(len(out))
            return out

        return spy

    drawing = importlib.import_module("demaz.render")
    monkeypatch.setattr(perm, "_preimages", recording(perm._preimages))
    monkeypatch.setattr(drawing, "_images", recording(drawing._images))
    for a0, a1, b0, b1 in ((0, 3, 0, 3), (10**20 - 3, 10**20 + 2, -1, 1)):
        built.clear()
        assert _rendered_counts(p, a0, a1, b0, b1) == [
            [eval_s(p, a, b) for b in range(b0, b1 + 1)] for a in range(a0, a1 + 1)
        ]
        assert sorted(built) == sorted((a1 - a0 + 1, b1 - b0 + 1))


def test_inversion_scan_matches_the_per_pair_loops(rng):
    operands = {p for pair in inversion_scan_pairs(rng) for p in pair}
    finitary = 0
    listed = set()
    for p in operands:
        m = p.diff_bound
        for u_lo, u_hi in ((p.lo - 2 * m - 3, p.hi + 2), (p.lo - 40, p.lo - 33)):
            # the per-pair scan inversions_in replaced; the reference
            want = [
                (u, v)
                for u in range(u_lo, u_hi + 1)
                for v in range(u + 1, u + 2 * m + 1)
                if apply(p, u) > apply(p, v)
            ]
            assert inversions_in(p, u_lo, u_hi) == want, (p, u_lo, u_hi)
            listed.add(bool(want))
        if not is_finitary(p):
            with pytest.raises(InfiniteInversions):
                inv_count(p)
            continue
        brute = sum(
            apply(p, u) > apply(p, v)
            for u in range(p.lo - 2 * m - 2, p.hi + 3)
            for v in range(u + 1, u + 2 * m + 3)
        )
        assert inv_count(p) == brute, p
        finitary += 1
    assert finitary > 20 and len(operands) - finitary > 20
    assert listed == {True, False}


def test_inversion_band_is_capped_before_allocation(max_window):
    max_window(50)
    with pytest.raises(ResourceLimit, match="inversion band of 64 entries"):
        inversions_in(make_shift(30), 0, 3)


def _chi_by_scan(k, lo, vals, bound):
    # the count from_window's chi replaced, kept as the reference: integers
    # carried from [0, bound] below 0, minus those from [-bound, -1] above
    pos = sum(1 for n in range(0, bound + 1) if _tail_apply(k, lo, vals, n) < 0)
    neg = sum(1 for n in range(-bound, 0) if _tail_apply(k, lo, vals, n) >= 0)
    return pos - neg


def test_chi_matches_the_crossing_count(rng):
    windows = 0
    for _ in range(150):
        p = zoo_perm(rng)
        if rng.random() < 0.4:
            p = compose(p, zoo_perm(rng))
        if rng.random() < 0.3:
            p = compose(make_shift(rng.randint(-50, 50)), p)
        k = p.period
        for pad_lo, pad_hi in ((0, 0), (rng.randint(0, 3), rng.randint(0, 3))):
            lo = p.lo - pad_lo * k
            vals = [apply(p, n) for n in range(lo, p.hi + pad_hi * k + 1)]
            bound = _raw_diff_bound(k, lo, vals)
            chi = from_window(k, lo, vals).chi
            assert chi == _chi_by_scan(k, lo, vals, bound), p
            windows += 1
    assert windows == 300
    assert shift_of(make_shift(10**5)) == 10**5


def _validate_by_band(k, lo, vals):
    """validate as it was before the residue-class verdict: every valid
    window also walked the guard band.  The reference for the verdict."""
    out = []
    if len({v % k for v in vals[:k]}) != k or len({v % k for v in vals[-k:]}) != k:
        return None  # the residue checks, unchanged, decide these
    hi = lo + len(vals) - 1
    m = _raw_diff_bound(k, lo, vals)
    pre = {}
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


def _raw_windows(rng, count):
    """Raw windows of period k <= 5 whose end residue systems are complete:
    random values, and valid windows (an affine map, some of its window
    entries swapped) with one entry perturbed half of the time."""
    for _ in range(count):
        k = rng.randint(1, 5)
        if rng.random() < 0.4:
            n = rng.randint(k, 3 * k + 5)
            vals = [rng.randint(-12, 12) for _ in range(n)]
            for ends in (range(k), range(n - k, n)):
                res = rng.sample(range(k), k)
                for r, i in zip(res, ends):
                    vals[i] = r + k * rng.randint(-3, 3)
        else:
            base = [r + k * rng.randint(-2, 2) for r in rng.sample(range(k), k)]
            start = -k * rng.randint(0, 3)
            end = k * rng.randint(1, 4) + rng.randint(0, 6)
            vals = [base[i % k] + i - i % k for i in range(start, end)]
            n = len(vals)
            for _ in range(rng.randint(0, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                vals[i], vals[j] = vals[j], vals[i]
            if rng.random() < 0.5:
                vals[rng.randrange(n)] += rng.choice((k, -k, 1, -1, 2 * k))
        yield k, rng.randint(-6, 6), vals


def test_residue_class_verdict_matches_the_band_scan(rng):
    verdicts = {True: 0, False: 0}
    for k, lo, vals in _raw_windows(rng, 12000):
        want = _validate_by_band(k, lo, vals)
        got = validate(k, lo, vals)
        if want is None:
            assert got and {v.kind for v in got} == {"residue-collision"}
            continue
        valid = _covers_each_class_once(k, vals)
        assert valid == (want == []), (k, lo, vals)
        assert got == want, (k, lo, vals)
        verdicts[valid] += 1
    assert verdicts[True] > 2000 and verdicts[False] > 5000, verdicts


def _canonical_by_loops(k, lo, vals):
    """The divisor test and deviation scan _canonical_fields replaced, each
    point evaluated on its own; the reference."""
    hi = lo + len(vals) - 1
    ev = lambda n: _tail_apply(k, lo, vals, n)
    d = k
    for cand in [c for c in range(1, k + 1) if k % c == 0]:
        right_ok = all(
            ev(n + cand) == ev(n) + cand for n in range(hi - k + 1, hi + 1)
        )
        left_ok = all(ev(n - cand) == ev(n) - cand for n in range(lo, lo + k))
        if right_ok and left_ok:
            d = cand
            break
    dev = [n for n in range(lo - d - k - 1, hi + k + 2) if ev(n + d) != ev(n) + d]
    if not dev:
        return d, 0, tuple(ev(i) for i in range(d))
    lo_c = min(dev)
    hi_c = max(dev) + d
    return d, lo_c, tuple(ev(n) for n in range(lo_c, hi_c + 1))


def test_canonical_fields_match_the_pointwise_loops(rng):
    windows = [w for w in _raw_windows(rng, 4000) if _validate_by_band(*w) == []]
    for _ in range(300):
        p = zoo_perm(rng)
        if rng.random() < 0.3:
            p = compose(make_shift(rng.randint(-40, 40)), p)
        k = p.period * rng.randint(1, 3)
        lo = p.lo - k * rng.randint(0, 3)
        hi = max(p.hi, lo + k - 1) + rng.randint(0, 2 * k)
        windows.append((k, lo, [apply(p, n) for n in range(lo, hi + 1)]))
    periods, valid = set(), 0
    for k, lo, vals in windows:
        *got, chi, m = _canonical_fields(k, lo, tuple(vals))
        assert tuple(got) == _canonical_by_loops(k, lo, vals), (k, lo, vals)
        periods.add((k, got[0]))
        # a zoo window whose end periods are not yet in p's tails is no
        # bijection; only a valid one has a shift and a diff bound
        if not validate(k, lo, vals):
            assert m == _raw_diff_bound(k, lo, vals) == _raw_diff_bound(*got)
            bound = _raw_diff_bound(k, lo, vals)
            assert chi == _chi_by_scan(k, lo, vals, bound), (k, lo, vals)
            valid += 1
    # multiples reduced to a proper divisor occur, as do kept periods
    assert any(d < k for k, d in periods) and any(d == k > 1 for k, d in periods)
    assert len(windows) > 1000 and valid > 900, (len(windows), valid)


def _canonical_by_brute_force(k, lo, vals):
    """The canonical permutation of a valid window from the definitions:
    alpha evaluated point by point well beyond the window, the smallest
    period d dividing k that both tails keep, the smallest window outside
    which alpha(n + d) = alpha(n) + d, the shift as a crossing count and
    the diff bound as a maximum.  The reference for from_window."""
    hi = lo + len(vals) - 1
    reach = 4 * k + 8
    a0 = lo - reach
    alpha = [_tail_apply(k, lo, vals, n) for n in range(a0, hi + reach + 1)]

    def keeps(c, n):
        return alpha[n + c - a0] == alpha[n - a0] + c

    # each tail repeats its displacements with period k, so 2k points deep
    # in each tail show whether it keeps c
    left, right = range(a0, a0 + 2 * k), range(hi + reach - 3 * k, hi + reach - k)
    d = min(
        c
        for c in range(1, k + 1)
        if k % c == 0 and all(keeps(c, n) for n in (*left, *right))
    )
    dev = [n for n in range(a0, hi + reach - d + 1) if not keeps(d, n)]
    if dev:
        lo_c, window = dev[0], alpha[dev[0] - a0 : dev[-1] + d - a0 + 1]
    else:
        lo_c, window = 0, [_tail_apply(k, lo, vals, n) for n in range(d)]
    disp = [v - n for n, v in enumerate(alpha, a0)]
    low, high = min(disp), max(disp)
    # the net flow of integers across the cut (a, b), n >= b with
    # alpha(n) < a less n < b with alpha(n) >= a, is chi + a - b; at b = lo,
    # a = lo + low no n >= lo crosses, and the n < lo that do lie within
    # high - low of lo, however large the shift
    crossing = sum(
        _tail_apply(k, lo, vals, n) >= lo + low for n in range(lo - high + low, lo)
    )
    return d, lo_c, tuple(window), -crossing - low, max(high, -low)


def _message_of(bad):
    """from_window's InvalidPermutation text for a list of violations."""
    shown = "; ".join(f"{v.kind}: {v.detail}" for v in bad[:3])
    more = f" ({len(bad)} violations in all)" if len(bad) > 3 else ""
    return f"not a bijection: {shown}{more}"


def _residue_reference(k, lo, vals):
    """validate's residue-collision violations, from their definition."""
    out = []
    for side, start in (("left", 0), ("right", len(vals) - k)):
        gens = vals[start : start + k]
        pairs = [
            (j, i) for j in range(k) for i in range(j) if (gens[i] - gens[j]) % k == 0
        ]
        if pairs:
            j, i = min(pairs)
            out.append(Violation(
                "residue-collision",
                f"{side} tail generator: alpha({lo + start + i}) and "
                f"alpha({lo + start + j}) share residue {gens[j] % k} mod {k}; "
                f"{len({v % k for v in gens})} of {k} residues occur",
            ))
    return out


def _windows_to_build(rng, count):
    """Valid windows of permutations with periods up to 35 (zoo members,
    mixed tails, affines of period 2 to 7 and compositions of periods 5 and
    7), written with a multiple of the period up to 35, padded by up to
    four periods on each side, shifted, or far from 0; and, for about half
    of them, the same window with one entry moved or two entries swapped."""
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            p = zoo_perm(rng)
        elif kind == 1:
            p = mixed_tails(rng)
        elif kind == 2:
            p = rand_affine(rng, rng.randint(2, 7))
        elif kind == 3:
            p = compose(rand_affine(rng, 5, 1), rand_affine(rng, 7, 1))
        else:
            p = sym(rng, rng.randint(2, 9), rng.choice((10**6, -(10**6))))
        if kind < 4 and rng.random() < 0.4:
            p = compose(make_shift(rng.choice((1, -1)) * rng.randint(0, 10**6)), p)
        k = p.period * rng.randint(1, max(1, 35 // p.period))
        lo = p.lo - k - rng.randint(0, 3 * k)
        hi = max(p.hi + k, lo + 2 * k) + rng.randint(0, 3 * k)
        vals = _images(p.period, p.lo, p.vals, lo, hi)
        # the band scan that lists an invalid window's violations walks
        # ~6 diff_bound entries, so only windows of small shift are broken
        broken = p.diff_bound < 100 and rng.random() < 0.6
        if broken:
            i = rng.randrange(len(vals))
            if rng.random() < 0.5:
                vals[i] += rng.choice((1, -1, k, -k, 2))
            else:
                j = rng.randrange(len(vals))
                vals[i], vals[j] = vals[j], vals[i]
        yield p, broken, k, lo, vals


def _check_from_window_against_brute_force(rng, count):
    seen = {"valid": 0, "invalid": 0, "reduced": 0}
    for p, broken, k, lo, vals in _windows_to_build(rng, count):
        bad = validate(k, lo, vals)
        try:
            q = from_window(k, lo, vals)
        except InvalidPermutation as e:
            assert bad and e.violations == tuple(bad), (k, lo, vals)
            assert str(e) == _message_of(bad)
            band = _validate_by_band(k, lo, vals)
            assert bad == (_residue_reference(k, lo, vals) if band is None else band)
            assert broken
            seen["invalid"] += 1
            continue
        assert bad == []
        want = _canonical_by_brute_force(k, lo, vals)
        assert (q.period, q.lo, q.vals, q.chi, q.diff_bound) == want, (k, lo, vals)
        if not broken:
            assert q == p
        seen["valid"] += 1
        seen["reduced"] += q.period < k
    return seen


def test_from_window_matches_the_brute_force_definitions(rng):
    seen = _check_from_window_against_brute_force(rng, 1000)
    assert min(seen.values()) > 250, seen


@pytest.mark.extended
def test_from_window_matches_the_brute_force_definitions_extended(rng):
    seen = _check_from_window_against_brute_force(rng, 20000)
    assert min(seen.values()) > 5000, seen


def test_from_window_cost_does_not_depend_on_diff_bound(monkeypatch, rng):
    # from_window reads a valid window's tails off its end periods: it
    # evaluates no point through _tail_apply (the band scan of invalid
    # windows does) and, for an affine map only, one period through _images
    entries = applied = 0
    real_images, real_apply = perm._images, perm._tail_apply

    def counting_images(period, lo, vals, n0, n1):
        nonlocal entries
        entries += max(n1 - n0 + 1, 0)
        return real_images(period, lo, vals, n0, n1)

    def counting_apply(*args):
        nonlocal applied
        applied += 1
        return real_apply(*args)

    monkeypatch.setattr(perm, "_images", counting_images)
    monkeypatch.setattr(perm, "_tail_apply", counting_apply)
    line = rand_line(rng, 1000)
    cases = {
        "shift": [(1, 0, (-(10**6),)), (1, 0, (-1,))],
        "affine": [(2, 0, (0, 2000001)), (2, 0, (0, 3))],
        "S_1000": [
            (1, 0, (10**5, *(v + 10**5 for v in line), 1001 + 10**5)),
            (1, 0, (0, *line, 1001)),
        ],
    }
    for name, windows in cases.items():
        counts = []
        for (k, lo, vals), far in zip(windows, (True, False)):
            entries = applied = 0
            p = from_window(k, lo, vals)
            counts.append(entries)
            assert (p.diff_bound >= 10**5) == far
            assert applied == 0 and entries <= k, (name, applied, entries)
        # the two windows differ in diff_bound: 10^5 or more against 1000 or less
        assert counts[0] == counts[1], (name, counts)


def test_perm_doctests_pass():
    result = doctest.testmod(perm)
    assert result.failed == 0
    assert result.attempted == 8


# ---------------------------------------------------------------------------
# size caps: one row per call site of perm._check_window and perm._check_cells


def _gamma22():
    return make_gamma(2, 2)


# (id, cap, its value, a builder of the capped call, what the message names,
# the size, and the function that runs after the check and must not): the
# builder runs under the default caps, so it may build operands freely
CAPPED = [
    ("validate", "window", 10, lambda: partial(validate, 1, 0, list(range(11))),
     "window", 11, "demaz.perm:_covers_each_class_once"),
    ("violation-band", "window", 201, lambda: partial(validate, 1, 0, [0, 50]),
     "violation band", 202, "demaz.perm:_tail_apply"),
    ("sigma-mod", "window", 10, lambda: partial(make_sigma_set, ResidueClass(0, 11)),
     "sigma_mod(0,11) window", 11, "demaz.perm:from_window"),
    ("sigma-set", "window", 23, lambda: partial(make_sigma_set, [0, 20]),
     "sigma window", 24, "demaz.perm:from_window"),
    ("gamma", "window", 11, lambda: partial(make_gamma, 4, 4),
     "gamma(4,4) window", 12, "demaz.perm:from_window"),
    ("compose-affine", "window", 5,
     lambda: partial(compose, make_affine([1, 0], 2), make_affine([1, 2, 0], 3)),
     "composition window", 6, "demaz.perm:_images"),
    ("compose", "window", 10, lambda: partial(compose, _gamma22(), _gamma22()),
     "composition window", 14, "demaz.perm:_images"),
    ("inverse", "window", 5, lambda: partial(inverse, make_gamma(2, 3)),
     "inverse window", 9, "demaz.perm:_preimages"),
    ("inversion-band", "window", 50, lambda: partial(inversions_in, make_shift(30), 0, 3),
     "inversion band", 64, "demaz.perm:_images"),
    ("product-window", "window", 5,
     lambda: partial(star, _gamma22(), make_sigma_set([1])),
     "product window", 7, "demaz.finitary:_images"),
    ("germ-period", "window", 5,
     lambda: partial(star, make_affine([1, 2, 0], 3), make_affine([1, 0], 2)),
     "germ period", 6, "demaz.finitary:_affine_word"),
    ("truncated-window", "window", 60,
     lambda: partial(star, from_window(3, -2, [-6, 1, 2, 5, -3, 4, 0, 7, 8]),
                     make_affine([-1, 2], 2)),
     "truncated window", 77, "demaz.finitary:_affine_word"),
    ("fold-word", "cells", 2,
     lambda: partial(star, identity(), make_from_one_line([3, 2, 1])),
     "affine fold word", 3, "demaz.finitary:_affine_word"),
    ("essential-cells", "cells", 99,
     lambda: partial(essential_cells, _gamma22(), 0, 9, 0, 9),
     "essential-cell scan [0..9]x[0..9]", 100, "demaz.order:_images"),
    ("render", "cells", 99, lambda: partial(render, _gamma22(), RenderSpec(0, 9, 0, 9)),
     "render rectangle", 100, "demaz.render:_rank_bits"),
    ("slipface-grid", "cells", 99,
     lambda: partial(slipface._mk, 0, 1, 1, 0, 0, np.zeros((10, 10))),
     "slipface grid", 100, "demaz.slipface:Slipface"),
    ("evaluation-rectangle", "cells", 99,
     lambda: partial(sf_eval_grid, sf_from_perm(_gamma22()), 0, 9, 0, 9),
     "evaluation rectangle", 100, "numpy:arange"),
    ("rank-table", "cells", 99, lambda: partial(rank_table, _gamma22(), 0, 9, 0, 9),
     "rank table", 100, "demaz.slipface:_images"),
    ("result-box", "cells", 99,
     lambda: partial(sf_star, sf_from_perm(_gamma22()), sf_from_perm(make_sigma_set([1]))),
     "result box", 1936, "demaz.slipface:sf_eval_grid"),
]


@pytest.mark.parametrize(
    "cap, value, build, what, size, spy", [row[1:] for row in CAPPED],
    ids=[row[0] for row in CAPPED],
)
def test_size_caps_fire_before_what_they_guard(
    monkeypatch, max_window, cap, value, build, what, size, spy
):
    call = build()
    module, name = spy.split(":")

    def unreached(*args, **kwargs):
        raise AssertionError(f"{name} ran past the {cap} cap")

    monkeypatch.setattr(importlib.import_module(module), name, unreached)
    if cap == "window":
        max_window(value)
        want = f"{what} of {size} entries exceeds cap {value} (raise it with --max-window)"
    else:
        monkeypatch.setattr(perm, "_GRID_CELL_CAP", value)
        want = f"{what} of {size} cells exceeds cap {value}"
    with pytest.raises(ResourceLimit) as info:
        call()
    assert str(info.value) == want


def test_the_window_cap_does_not_leak(max_window, capsys):
    from demaz import cli

    max_window(123)
    contextvars.copy_context().run(set_max_window, 5)
    assert get_max_window() == 123
    seen = []

    def worker():
        set_max_window(7)
        seen.append(get_max_window())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [7] and get_max_window() == 123
    assert cli.main(["--max-window=5", "star", "gamma(4,4)", "gamma(4,4)"]) == 4
    assert capsys.readouterr().err.startswith("resource limit: ")
    assert get_max_window() == 123
