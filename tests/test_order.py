"""Bruhat and weak orders: engine comparators against brute force."""

import itertools
import math
import random
import sys

import pytest

from conftest import (
    inversion_pairs,
    inversion_scan_pairs,
    line_of,
    mixed_tails,
    rand_affine,
    sd_lines,
    sd_perms,
    sym,
    zoo_perm,
    zoo_perm_with_shift,
)

from demaz import (
    ResidueClass,
    ResourceLimit,
    apply,
    bruhat_leq,
    bruhat_leq_witness,
    compose,
    ess_set,
    eval_s,
    format_perm,
    has_inversion,
    identity,
    inverse,
    is_reduced_pair_witness,
    leq_chi,
    make_gamma,
    make_shift,
    make_sigma_set,
    parse_perm,
    perm_ess_set,
    reduce,
    sf_from_perm,
    sf_leq_ess,
    shift_of,
    star,
    weak_left_leq,
    weak_left_leq_witness,
    weak_right_leq,
    weak_right_leq_witness,
)
from demaz import order, perm, slipface
from demaz.cli import main
from demaz.oracle import sd_leq
from demaz.perm import is_affine


def test_bruhat_matches_oracle_s4():
    lines = sd_lines(4)
    perms = sd_perms(4)
    for (lu, u), (lv, v) in itertools.product(zip(lines, perms), repeat=2):
        assert bruhat_leq(u, v) == sd_leq(lu, lv), (lu, lv)
        assert bruhat_leq_witness(u, v) == _witness_by_reference(u, v)[0], (lu, lv)


def test_bruhat_witness_is_genuine(rng):
    for _ in range(40):
        p = zoo_perm(rng)
        q = zoo_perm(rng)
        ok, wit = bruhat_leq_witness(p, q)
        assert ok == bruhat_leq(p, q)
        if not ok:
            a, b = wit
            assert eval_s(p, a, b) > eval_s(q, a, b)


def periodic_pairs(rng):
    """The families of the periodic benchmark: periods 3 against 5, a
    period-7 affine shifted by 15 against period 5, two-block shuffles,
    period 7 against transpositions at r + 4Z, a two-block shuffle against
    finite transpositions."""
    pairs = []
    for _ in range(3):
        pairs.append((rand_affine(rng, 3, 1), rand_affine(rng, 5, 1)))
        shift = make_shift(rng.choice((-15, 15)))
        pairs.append((compose(rand_affine(rng, 7, 1), shift), rand_affine(rng, 5, 1)))
        m, n, m2, n2 = rng.sample(range(9), 2) + rng.sample(range(9), 2)
        pairs.append((make_gamma(m, n), make_gamma(m2, n2)))
        sigma = make_sigma_set(ResidueClass(rng.randrange(4), 4))
        pairs.append((rand_affine(rng, 7, 1), sigma))
        sigma = make_sigma_set(sorted(rng.sample(range(-8, 9, 2), 3)))
        pairs.append((make_gamma(*rng.sample(range(9), 2)), sigma))
    return pairs


def test_bruhat_witness_matches_the_grid_comparison(rng):
    pairs = []
    for p, q in periodic_pairs(rng):
        g = star(p, q)
        pairs += [(p, q), (q, p), (p, g), (g, p), (g, q), (q, g)]
        # the left side larger in shift: the far witness
        pairs.append((compose(make_shift(q.chi - g.chi + 1), g), q))
    for k in range(2, 8):
        d, off = rng.randint(2, 5), rng.randint(-4, 4)
        mixed = star(rand_affine(rng, k, 1), sym(rng, d, off))
        other = rand_affine(rng, rng.randint(2, 7), 1)
        pairs += [(mixed, other), (other, mixed), (mixed, star(mixed, other))]
    outcomes = set()
    for p, q in pairs:
        got = bruhat_leq_witness(p, q)
        assert got == sf_leq_ess(sf_from_perm(p), sf_from_perm(q)), (p, q)
        outcomes.add((got[0], p.chi > q.chi, max(p.period, q.period) > 1))
    assert outcomes >= {(True, False, True), (False, False, True), (False, True, True)}


def _far_coprime(rng, off):
    """A period-5 and a period-7 operand, each an affine starred with a
    random S_d near off and shifted by up to 50; a star that gives back a
    globally periodic operand, whose canonical window sits at 0, is drawn
    again, so that the grid comparison can span both windows."""
    out = []
    for k in (5, 7):
        p = identity()
        while is_affine(p):
            p = star(rand_affine(rng, k, 1), sym(rng, rng.randint(3, 8), off + rng.randint(-5, 5)))
        out.append(compose(make_shift(rng.randint(-50, 50)), p))
    return out


def _reduce_path_pairs(p, q):
    """The comparisons that reduce(p, q, g) makes besides the pair's own:
    (alpha1, p), (beta1, q) and (g, star(p, q)), for g = star(p, q) and the
    smaller g = compose(p, q)."""
    st = star(p, q)
    pairs = []
    for g in (st, compose(p, q)):
        w = reduce(p, q, g)
        pairs += [(w.alpha1, p), (w.beta1, q), (g, st)]
    return pairs


def _sweep_pairs(rng):
    """inversion_pairs (windows near +-10^4, |chi| up to 50, periods 5 and
    7), coprime periods 5 and 7 against each other, near 0 and near +-10^4,
    mixed tails against each other and against other operands, each pair's
    star, the comparisons of reduce on periodic pairs, and left sides
    shifted above the right one."""
    pairs = inversion_pairs(rng)
    for _ in range(6):
        p, q = rand_affine(rng, 5, 1), rand_affine(rng, 7, 1)
        q = compose(make_shift(rng.randint(-50, 50)), q)
        pairs += [(p, q), (q, p), (p, star(p, q)), (star(q, p), q)]
        pairs += _reduce_path_pairs(p, q)
    for off in (10**4, -(10**4)):
        for _ in range(3):
            p, q = _far_coprime(rng, off)
            quad = [(p, q), (q, p), (p, star(p, q)), (star(q, p), q)]
            # a globally periodic star's window sits at 0, out of the grid's reach
            pairs += [pq for pq in quad if not any(map(is_affine, pq))]
    for _ in range(12):
        m = mixed_tails(rng)
        other = rng.choice((zoo_perm(rng), mixed_tails(rng), rand_affine(rng, 3, 1)))
        m2 = mixed_tails(rng)
        pairs += [(m, other), (other, m), (m, star(m, other)), (m, m2)]
    for p, q in periodic_pairs(rng)[::3]:
        pairs += _reduce_path_pairs(p, q)
    for p, q in pairs[::7]:
        pairs.append((compose(make_shift(q.chi - p.chi + rng.randint(1, 3)), p), q))
    return pairs


def _witness_zone(p, q, got):
    """Where the zone scan found the failing witness of a period > 1 left
    side: "moved" down the diagonal from the left zone, below the scanned
    rows, or "core" above that zone; None for other outcomes."""
    if got[0] or p.period == 1 or p.chi > q.chi:
        return None
    a0, _, _, _, top, _ = order._zones(p, q)
    a = got[1][0]
    if a <= top:
        assert a < a0
        return "moved"
    return "core"


def test_essential_sweep_matches_the_grid_comparison(rng):
    outcomes, zones = set(), set()
    for p, q in _sweep_pairs(rng):
        got = bruhat_leq_witness(p, q)
        assert got == sf_leq_ess(sf_from_perm(p), sf_from_perm(q)), (p, q)
        outcomes.add((got[0], p.chi > q.chi, max(p.period, q.period) > 1))
        zones.add(_witness_zone(p, q, got))
    assert outcomes >= {
        (True, False, False), (False, False, False), (True, False, True),
        (False, False, True), (False, True, False), (False, True, True),
    }
    assert zones >= {"moved", "core"}


def test_far_window_against_a_globally_periodic_side(rng):
    """A globally periodic side bounds no zone, so a far window against it
    scans near that window, where the grid refuses the square between the
    two; the verdict is that of the pair translated to 0, and the witness a
    failing essential cell."""
    seen = set()
    for off in (10**4, -(10**4)):
        for _ in range(4):
            far, _ = _far_coprime(rng, off)
            t = far.lo
            near = compose(make_shift(t), compose(far, make_shift(-t)))
            for a in (rand_affine(rng, 7, 1), star(rand_affine(rng, 3, 1), rand_affine(rng, 7, 1))):
                a = compose(make_shift(rng.randint(-50, 50)), a)
                for (p, q), (p0, q0) in (((far, a), (near, a)), ((a, far), (a, near))):
                    got = bruhat_leq_witness(p, q)
                    assert got[0] == sf_leq_ess(sf_from_perm(p0), sf_from_perm(q0))[0]
                    seen.add(got[0])
                    if not got[0] and p.chi <= q.chi:
                        x, y = got[1]
                        assert eval_s(p, x, y) > eval_s(q, x, y)
                        assert [c[:2] for c in order.essential_cells(p, x, x, y, y)] == [(y, [x])]
    assert seen == {True, False}


@pytest.mark.extended
def test_zone_scan_matches_the_grid_on_many_pairs():
    rng = random.Random(16)
    outcomes, zones, n = set(), set(), 0
    while n < 5000:
        for p, q in _sweep_pairs(rng):
            got = bruhat_leq_witness(p, q)
            assert got == sf_leq_ess(sf_from_perm(p), sf_from_perm(q)), (p, q)
            outcomes.add((got[0], p.chi > q.chi, p.period > 1))
            zones.add(_witness_zone(p, q, got))
            n += 1
    assert len(outcomes) == 6
    assert zones >= {"moved", "core"}


def test_zone_scan_is_bounded_by_its_work(rng, monkeypatch, capsys):
    rects = []
    real = order._sweep_start

    def recording(p, a0, a1, b0, b1, *others):
        rects.append((a1 - a0 + 1, b1 - b0 + 1))
        return real(p, a0, a1, b0, b1, *others)

    def scanned(p, q):
        rects.clear()
        bruhat_leq_witness(p, q)
        (rect,) = rects
        return rect

    monkeypatch.setattr(order, "_sweep_start", recording)
    checked = 0
    for p, q in _sweep_pairs(rng) + periodic_pairs(rng):
        if p.period == 1 or p == q or p.chi > q.chi:
            continue
        k = math.lcm(p.period, q.period)
        left = min(f.lo + f.period - f.diff_bound for f in (p, q)) - 2
        right = max(f.hi - f.period for f in (p, q)) + 2
        rows, cols = scanned(p, q)
        assert max(rows, cols) <= right - left + 2 * k + 2 * p.diff_bound + 4, (p, q)
        # a shift composed with both sides, on either side, grows nothing
        for t in (make_shift(-50), make_shift(50)):
            for pair in ((compose(t, p), compose(t, q)), (compose(p, t), compose(q, t))):
                r2, c2 = scanned(*pair)
                assert r2 <= rows and c2 <= cols, (p, q, t)
        checked += 1
    assert checked >= 50
    rects.clear()
    for p, _ in periodic_pairs(rng):
        assert bruhat_leq_witness(p, p) == (True, None)
        text = format_perm(p)
        assert main(["compare", "leq", text, text]) == 0
    assert rects == []
    capsys.readouterr()


def test_comparison_builds_no_list_sized_by_the_right_side(monkeypatch):
    """q's values reach 10^20 while p's scan covers four values: every
    preimage list the comparison builds has p's size.  The verdicts are
    those of the same pairs with 10^20 scaled down, checked on the grids;
    the affine side on the left stops at the cell cap before any list."""
    p = parse_perm("sym(1; 2 1)")
    for n in (5, 60):
        for q in (make_shift(n), parse_perm(f"ep(k=2, lo=0; {2 * n} {1 - 2 * n})")):
            assert bruhat_leq_witness(p, q) == (True, None)
            assert sf_leq_ess(sf_from_perm(p), sf_from_perm(q)) == (True, None)
    built = []
    real = perm._preimages

    def recording(period, lo, vals, a0, a1):
        out = real(period, lo, vals, a0, a1)
        built.append(len(out))
        return out

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "demaz" and hasattr(module, "_preimages"):
            monkeypatch.setattr(module, "_preimages", recording)
    # p's scanned columns [0, 3] carry onto [0, 3], and so do its rows
    span = p.hi - p.lo + 1
    down = parse_perm("ep(k=1, lo=0; -100000000000000000000 -99999999999999999999)")
    assert bruhat_leq_witness(p, down) == (True, None)
    assert bruhat_leq_witness(down, p) == (False, (4 * 10**20 + 9, 3 * 10**20 + 8))
    # q's values alternate above and below p's: counted, and ignored
    two_way = parse_perm("ep(k=2, lo=0; 100000000000000000000 -99999999999999999999)")
    assert two_way.chi == p.chi
    assert bruhat_leq_witness(p, two_way) == (True, None)
    with pytest.raises(ResourceLimit, match="^essential-cell scan .* exceeds cap"):
        bruhat_leq_witness(two_way, p)
    assert built and max(built) <= span


def _witness_by_reference(p, q):
    """The comparison by its definition on the scanned rectangle: every
    essential cell of p (``essential_cells``), q counted by ``eval_s``,
    left-zone cells moved down the diagonal, and the least failing cell.
    Returns the witness and the failing cells as (cell, moved cell, moved),
    column by column."""
    if p == q:
        return (True, None), []
    r0, r1, far = order.scan_region(order.perm_box(p), order.perm_box(q))
    if p.chi > q.chi:
        return (False, far), []
    if p.period == 1:
        a0, a1, b0, b1 = order._region(p, r0, r1)
        top, k = a0 - 1, 1
    else:
        a0, a1, b0, b1, top, k = order._zones(p, q)
        a0, a1, b0 = max(a0, r0), min(a1, r1), max(b0, r0)
    failing = []
    for b, rows, values in order.essential_cells(p, a0, a1, b0, b1):
        for a, v in zip(rows, values):
            if v <= eval_s(q, a, b):
                continue
            if a <= top:
                j = (min(a, b) - r0) // k * k
                failing.append(((a, b), (a - j, b - j), True))
            elif b <= r1:
                failing.append(((a, b), (a, b), False))
    best = min((moved for _, moved, _ in failing), default=None)
    return (best is None, best), failing


def _early_then_lower(failing, best):
    return any(
        not m1 and not m2 and c1[1] < c2[1] and c2[0] < c1[0] and c2 == best
        for (c1, _, m1), (c2, _, m2) in itertools.combinations(failing, 2)
    )


def _two_in_one_row(failing, best):
    return any(
        not m1 and not m2 and c1[0] == c2[0] and c1 == best
        for (c1, _, m1), (c2, _, m2) in itertools.combinations(failing, 2)
    )


def _moved_beats_unmoved(failing, best):
    return any(
        not m1 and m2 and c1[1] < c2[1] and d2 == best
        for (c1, _, m1), (c2, d2, m2) in itertools.combinations(failing, 2)
    )


def _moves_reverse_a_column(failing, best):
    return any(
        m1 and m2 and c1[1] == c2[1] and d2 < d1 and best in (d1, d2)
        for (c1, d1, m1), (c2, d2, m2) in itertools.combinations(failing, 2)
    )


@pytest.mark.parametrize(
    "left, right, case",
    [
        ("ep(k=1, lo=0; 0 3 2 1 4)", "ep(k=1, lo=0; 0)", _early_then_lower),
        ("ep(k=1, lo=0; 0 4 1 2 5 3 6)", "ep(k=1, lo=2; 2 4 3 5)", _two_in_one_row),
        ("ep(k=3, lo=0; 4 3 -1)", "ep(k=2, lo=-2; -1 0 2 1)", _moved_beats_unmoved),
        ("ep(k=2, lo=0; 5 -2)", "ep(k=3, lo=0; 0 -1 4)", _moves_reverse_a_column),
    ],
    ids=["early-then-lower", "two-in-one-row", "moved-beats-unmoved",
         "moves-reverse-a-column"],
)
def test_pruned_sweep_keeps_the_witness(left, right, case):
    """Pairs where a failing cell found first is not the witness: the rows
    that the sweep drops must never hold it."""
    p, q = parse_perm(left), parse_perm(right)
    want, failing = _witness_by_reference(p, q)
    assert case(failing, want[1])
    assert bruhat_leq_witness(p, q) == want
    assert want == sf_leq_ess(sf_from_perm(p), sf_from_perm(q))


def test_perm_ess_set_matches_the_grid(rng):
    pool = {p for pair in _sweep_pairs(rng) for p in pair}
    kinds = set()
    for p in sorted(pool, key=repr):
        e = perm_ess_set(p)
        assert e == ess_set(sf_from_perm(p)), p
        kinds.add((p.period > 1, e.periodic, bool(e.points)))
    assert kinds >= {(False, False, True), (True, True, True), (False, False, False)}


def test_periodic_comparison_and_reduce_build_no_grid(rng, monkeypatch, capsys):
    built = []
    real = slipface.sf_from_perm

    def counting(p):
        built.append(p)
        return real(p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "demaz" and hasattr(module, "sf_from_perm"):
            monkeypatch.setattr(module, "sf_from_perm", counting)
    for p, q in periodic_pairs(rng):
        if max(p.period, q.period) > 1:
            main(["compare", "leq", format_perm(p), format_perm(q)])
            reduce(p, q, star(p, q))
    assert built == []
    main(["ess", "sigma_mod(1,4)"])
    assert built == []
    # the counter sees calls through the CLI: the grid re-check of ess
    main(["--extended-checks", "ess", "sigma_mod(1,4)"])
    assert len(built) == 1
    capsys.readouterr()


def test_bruhat_shift_examples():
    e = identity()
    assert bruhat_leq(e, make_shift(1))
    assert not bruhat_leq(e, make_shift(-1))
    assert bruhat_leq(make_shift(-2), e)


def test_leq_chi_requires_equal_shift():
    e = identity()
    assert bruhat_leq(e, make_shift(1))
    assert not leq_chi(e, make_shift(1))
    assert leq_chi(e, e)


def brute_weak_left(p, q, lo=-12, hi=12):
    for u in range(lo, hi):
        for v in range(u + 1, hi + 1):
            if has_inversion(p, u, v) and not has_inversion(q, u, v):
                return False
    return True


def test_weak_left_matches_brute_s3():
    perms = sd_perms(3)
    for p in perms:
        for q in perms:
            assert weak_left_leq(p, q) == brute_weak_left(p, q)


def test_weak_left_witness(rng):
    for _ in range(40):
        p, q = zoo_perm(rng), zoo_perm_with_shift(rng, 0)
        ok, wit = weak_left_leq_witness(p, q)
        if not ok:
            u, v = wit
            assert has_inversion(p, u, v) and not has_inversion(q, u, v)


def test_weak_right_is_left_of_inverses(rng):
    for _ in range(40):
        p, q = zoo_perm(rng), zoo_perm(rng)
        assert weak_right_leq(p, q) == weak_left_leq(inverse(p), inverse(q))


def test_weak_implies_bruhat_same_shift(rng):
    # containment of inversion sets only forces Bruhat order inside a
    # shift class: a pure shift has no inversions at all
    for _ in range(50):
        p = zoo_perm(rng)
        q = zoo_perm_with_shift(rng, shift_of(p))
        if weak_left_leq(p, q):
            assert bruhat_leq(p, q)
        if weak_right_leq(p, q):
            assert bruhat_leq(p, q)


def test_prefix_of_reduced_product_is_weak_below(rng):
    # p is weak-right below p*q when the pair is reduced
    from demaz import is_reduced_pair

    for _ in range(40):
        p, q = zoo_perm(rng), zoo_perm(rng)
        if is_reduced_pair(p, q):
            assert weak_right_leq(p, compose(p, q))


def test_star_dominates_both_factors_up_to_shift(rng):
    # p <= p * q whenever chi(q) >= 0, by monotonicity from the identity
    for _ in range(40):
        p = zoo_perm(rng)
        q = zoo_perm_with_shift(rng, abs(shift_of(zoo_perm(rng))))
        assert bruhat_leq(p, star(p, q))


def reduced_pair_by_loops(p, q):
    """The per-pair scan is_reduced_pair_witness replaced; the reference."""
    qi = inverse(q)
    k = math.lcm(p.period, qi.period)
    m = min(p.diff_bound, qi.diff_bound)
    if m == 0:
        return True, None
    span = 2 * m
    u_lo = min(p.lo, qi.lo) - k - span - 2
    u_hi = max(p.hi, qi.hi) + k + 2
    for u in range(u_lo, u_hi + 1):
        for v in range(u + 1, u + span + 1):
            if apply(p, u) > apply(p, v) and apply(qi, u) > apply(qi, v):
                return False, (u, v)
    return True, None


def weak_left_by_loops(p, q):
    """The per-pair scan weak_left_leq_witness replaced; the reference."""
    k = math.lcm(p.period, q.period)
    m = max(p.diff_bound, q.diff_bound, 1)
    u_lo = min(p.lo, q.lo) - k - 2 * m - 2
    u_hi = max(p.hi, q.hi) + k + 2
    for u in range(u_lo, u_hi + 1):
        for v in range(u + 1, u + 2 * m + 1):
            if has_inversion(p, u, v) and not has_inversion(q, u, v):
                return False, (u, v)
    return True, None


def test_inversion_scan_matches_the_per_pair_loops(rng):
    verdicts = set()
    for p, q in inversion_scan_pairs(rng):
        got = is_reduced_pair_witness(p, q)
        assert got == reduced_pair_by_loops(p, q), (p, q)
        verdicts.add(("reduced", got[0]))
        got = weak_left_leq_witness(p, q)
        assert got == weak_left_by_loops(p, q), (p, q)
        verdicts.add(("left", got[0]))
        got = weak_right_leq_witness(p, q)
        assert got == weak_left_by_loops(inverse(p), inverse(q)), (p, q)
        verdicts.add(("right", got[0]))
    assert len(verdicts) == 6
