"""Brute-force oracles checked against first-principles definitions.

Everything here avoids the production slipface engine on purpose: the
oracles must stand on their own before other suites lean on them.
"""

import itertools

import pytest

from conftest import sd_lines

from demaz import (
    DemazError,
    apply,
    identity,
    inv_count,
    make_affine,
    make_from_one_line,
    make_shift,
)
from demaz.oracle import (
    oracle_eval_s,
    oracle_greedy_max,
    oracle_star_sd,
    oracle_star_word,
    oracle_stingy_min,
    sd_elements,
    sd_leq,
)


def rank_leq(u, v):
    """Dot criterion: u <= v iff every upper-left rank of u dominates."""
    d = len(u)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            ru = sum(1 for x in range(i) if u[x] >= j)
            rv = sum(1 for x in range(i) if v[x] >= j)
            if ru > rv:
                return False
    return True


def word_of(line):
    """Reduced word for a one-line tuple via adjacent-descent elimination."""
    w = list(line)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                swaps.append(i + 1)
                changed = True
    return swaps[::-1]


def test_eval_counts_by_hand():
    p = make_from_one_line((3, 1, 2))
    # pairs n >= b with p(n) < a, done on paper
    assert oracle_eval_s(p, 3, 1) == 2
    assert oracle_eval_s(p, 4, 1) == 3
    assert oracle_eval_s(p, 3, 2) == 2
    assert oracle_eval_s(p, 1, 5) == 0
    assert oracle_eval_s(make_shift(2), 1, 0) == 3


def test_sd_elements_complete():
    assert sorted(sd_elements(3)) == sorted(sd_lines(3))
    assert len(sd_elements(4)) == 24


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sd_leq_matches_rank_criterion(d):
    els = sd_elements(d)
    for u in els:
        for v in els:
            assert sd_leq(u, v) == rank_leq(u, v)


def test_word_product_agrees_with_table_product():
    for d in (3, 4):
        e = identity()
        for line in sd_lines(d):
            q = make_from_one_line(line)
            by_word = oracle_star_word(e, word_of(line))
            assert by_word == q, line
            # starting from a non-trivial left factor
            p = make_from_one_line(tuple(range(d, 0, -1)))
            assert oracle_star_word(p, word_of(line)) == oracle_star_sd(p, q, d)


def test_star_sd_associative_s3():
    perms = [(line, make_from_one_line(line)) for line in sd_lines(3)]
    for (_, p), (_, q), (_, r) in itertools.product(perms, repeat=3):
        left = oracle_star_sd(oracle_star_sd(p, q, 3), r, 3)
        right = oracle_star_sd(p, oracle_star_sd(q, r, 3), 3)
        assert left == right


def test_greedy_max_is_star_s3():
    perms = [make_from_one_line(line) for line in sd_lines(3)]
    for p in perms:
        for q in perms:
            assert oracle_greedy_max(p, q, 3) == oracle_star_sd(p, q, 3)


def test_star_length_is_subadditive_with_floor():
    perms = [make_from_one_line(line) for line in sd_lines(3)]
    for p in perms:
        for q in perms:
            n = inv_count(oracle_star_sd(p, q, 3))
            assert max(inv_count(p), inv_count(q)) <= n
            assert n <= inv_count(p) + inv_count(q)


def test_sd_oracles_refuse_operands_outside_s_d():
    # each operand below moves some n outside [1, 2], or is not finitary
    w = make_from_one_line((2, 1))
    outside = [
        make_from_one_line((2, 1, 3, 5, 4)),
        make_from_one_line((1, 0), off=0),
        make_shift(1),
        make_affine([1, 0], 2),
    ]
    for oracle in (oracle_star_sd, oracle_greedy_max, oracle_stingy_min):
        assert oracle(w, w, 2) in (identity(), w)
        for bad in outside:
            for p, q in ((bad, w), (w, bad)):
                with pytest.raises(DemazError, match="do not lie in .* S_2$"):
                    oracle(p, q, 2)
        for d in (0, -3):
            with pytest.raises(DemazError, match="needs d >= 1"):
                oracle(identity(), identity(), d)


def line_of_sd(p, d):
    return tuple(apply(p, i) for i in range(1, d + 1))


def test_stingy_min_defining_property_s3():
    d = 3
    perms = [make_from_one_line(line) for line in sd_lines(d)]
    for p in perms:
        for q in perms:
            m = oracle_stingy_min(p, q, d)
            # m is a solution: m * q >= p
            assert sd_leq(line_of_sd(p, d), line_of_sd(oracle_star_sd(m, q, d), d))
            # and below every other solution
            for c in perms:
                cq = oracle_star_sd(c, q, d)
                if sd_leq(line_of_sd(p, d), line_of_sd(cq, d)):
                    assert sd_leq(line_of_sd(m, d), line_of_sd(c, d))


@pytest.mark.extended
def test_greedy_max_is_star_s5_exhaustive():
    perms = [make_from_one_line(line) for line in sd_lines(5)]
    for p in perms:
        for q in perms:
            assert oracle_greedy_max(p, q, 5) == oracle_star_sd(p, q, 5)
