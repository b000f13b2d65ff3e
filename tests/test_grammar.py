"""Surface syntax: parsing expressions, formatting canonical forms."""

import sys

import pytest

from conftest import zoo_perm

from demaz import (
    DemazError,
    ParseError,
    ResidueClass,
    format_perm,
    identity,
    make_affine,
    make_from_one_line,
    make_gamma,
    make_shift,
    make_sigma_set,
    parse_perm,
)
from demaz.grammar import _Scanner


def test_parse_sym():
    assert parse_perm("sym(1; 2 3 1)") == make_from_one_line((2, 3, 1))
    assert parse_perm("sym(4; 5 6 4)") == make_from_one_line((5, 6, 4), off=4)


def test_parse_aff():
    assert parse_perm("aff(2; 3 -2)") == make_affine([3, -2], 2)


def test_parse_shift():
    assert parse_perm("shift(-2)") == make_shift(-2)
    assert parse_perm("shift(0)") == identity()


def test_parse_sigma():
    assert parse_perm("sigma(1,4)") == make_sigma_set([1, 4])
    assert parse_perm("sigma(3)") == make_sigma_set([3])


def test_parse_sigma_mod():
    assert parse_perm("sigma_mod(1,3)") == make_sigma_set(ResidueClass(1, 3))


def test_parse_gamma():
    assert parse_perm("gamma(3,5)") == make_gamma(3, 5)


def test_parse_ep():
    assert parse_perm("ep(k=2, lo=0; 3 -2)") == make_affine([3, -2], 2)
    assert parse_perm("ep(k=1, lo=0; 0)") == identity()


def test_whitespace_tolerance():
    assert parse_perm("  sym( 1 ;  2   3 1 )  ") == make_from_one_line((2, 3, 1))


def test_round_trip(rng):
    for _ in range(200):
        p = zoo_perm(rng)
        assert parse_perm(format_perm(p)) == p


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "sym()",
        "shift(x)",
        "ep(k=2; 3 -2)",
        "frob(1)",
        "sym(1; 2 3 1",
    ],
)
def test_parse_rejects_syntax(bad):
    with pytest.raises(ParseError):
        parse_perm(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "sym(1; 1 1)",
        "sym(1; 2 3)",
        "aff(2; 0 2)",
        "aff(0; 1)",
        "sigma(1,2)",
        "sigma_mod(0,1)",
        "gamma(-1,2)",
        "ep(k=2, lo=0; 3)",
    ],
)
def test_parse_rejects_semantics(bad):
    # syntactically fine, semantically impossible: domain error, not parse
    with pytest.raises(DemazError) as ei:
        parse_perm(bad)
    assert not isinstance(ei.value, ParseError)


def test_error_messages_locate_problem():
    with pytest.raises(ParseError) as ei:
        parse_perm("sym(1; 2 q 1)")
    assert "q" in str(ei.value)


class _CharScanner(_Scanner):
    """The character-by-character integer reading that int_list_ws and
    integer replaced, kept as the reference (``isdigit`` agrees with [0-9] on
    the ASCII strings it is given here)."""

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def int_list_ws(self):
        out = [self.integer()]
        while True:
            self.skip_ws()
            if self.pos < len(self.text) and (
                self.text[self.pos].isdigit() or self.text[self.pos] in "+-"
            ):
                out.append(self.integer())
            else:
                return out


def _read_list(scanner_class, text):
    sc = scanner_class(text)
    try:
        return sc.int_list_ws(), sc.pos
    except ParseError as e:
        return str(e), e.pos


def test_int_list_ws_matches_the_character_scanner(rng):
    pieces = ["1", "23", "0", "-", "+", " ", "\t", "\n", "-4", "+3", "x", ")", ";"]
    texts = ["1-2", "+3", "1\t2\n3", "1--2", "4 -", "5 +", "-", "", " 7 )", "1 - 2"]
    texts += [
        "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        for _ in range(4000)
    ]
    outcomes = set()
    for text in texts:
        want = _read_list(_CharScanner, text)
        assert _read_list(_Scanner, text) == want, repr(text)
        outcomes.add(type(want[0]))
    assert outcomes == {list, str}
    assert _read_list(_Scanner, "1-2")[0] == [1, -2]
    assert _read_list(_Scanner, "1--2") == (
        "expected an integer at position 1: '--2'",
        1,
    )


@pytest.mark.parametrize(
    "text",
    ["sym(1; \u00b2)", "shift(\u0663)", "aff(1; \u0661)", "ep(k=1, lo=\uff10; 0)"],
)
def test_non_ascii_digits_are_parse_errors(text):
    # str.isdigit accepts a superscript two, and int() reads Arabic-Indic
    # and fullwidth digits; the grammar's integers are ASCII decimal
    with pytest.raises(ParseError, match="expected an integer"):
        parse_perm(text)


@pytest.mark.parametrize(
    "head, tail, at",
    [
        ("shift(", ")", 6),
        ("aff(2; 1 ", ")", 9),
        ("gamma(1, -", ")", 9),
        ("ep(k=1, lo=+", "; 0)", 11),
    ],
)
def test_integers_past_the_digit_limit_are_parse_errors(head, tail, at):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    limit = sys.get_int_max_str_digits()
    parse_perm(head + "0" * limit + tail)
    with pytest.raises(ParseError, match=f"integer of more than {limit} digits") as ei:
        parse_perm(head + "9" * (limit + 1) + tail)
    assert ei.value.pos == at
