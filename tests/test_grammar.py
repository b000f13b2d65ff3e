"""Surface syntax: parsing expressions, formatting canonical forms."""

import random
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
from demaz.grammar import _Scanner, _parse_scanned


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


# texts of every form for the canonical pattern's differential test: half
# in the canonical layout, half with any whitespace the scanner skips
_DIGITS = "0123456789"
_SPACES = [" ", "", "  ", "\t", "\n", "\xa0", "\u2003", "\u3000", "\x1c"]


@st.composite
def _integer_texts(draw, odd=3):
    """An integer, one in seven of them huge, or with odds ``odd`` in 10 a
    text the grammar refuses."""
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    kind = draw(st.integers(3 - odd, 9))
    if kind == 0:  # past the digit limit
        return sign + draw(st.sampled_from("1937")) * (sys.get_int_max_str_digits() + 1)
    if kind == 1:  # a digit int() reads but the grammar refuses
        return sign + draw(st.sampled_from(["\u0663", "\uff10", "\xb2", "1\u0661"]))
    if kind == 2:  # no digits at all
        return sign
    if kind == 3:  # 12 to 30 digits: windows, bands and shifts past every cap
        return sign + draw(st.sampled_from(_DIGITS[1:])) + draw(
            st.text(_DIGITS, min_size=11, max_size=29)
        )
    zeros = "0" * draw(st.integers(0, 2))  # leading zeros, and +0
    return sign + zeros + draw(st.text(_DIGITS, min_size=1, max_size=2))


def _small_valid_windows():
    rng = random.Random(0x5EED)
    windows = [(1, 0, "0"), (2, 0, "3 -2"), (1, -1, "0 2 1 3")]
    for _ in range(40):
        p = zoo_perm(rng)
        windows.append((p.period, p.lo, " ".join(map(str, p.vals))))
    return windows


_VALID = _small_valid_windows()


@st.composite
def _texts(draw):
    canonical = draw(st.booleans())
    ws = (lambda: " ") if canonical else (lambda: draw(st.sampled_from(_SPACES)))
    gap = (lambda: "") if canonical else (lambda: draw(st.sampled_from(_SPACES[:4])))

    odd = draw(st.integers(0, 3))

    def ints(n, sep):
        return sep().join(draw(_integer_texts(odd)) for _ in range(n))

    forms = ["ep_valid", "ep", "sym", "aff", "shift", "sigma", "sigma_mod", "gamma"]
    form = draw(st.sampled_from(forms[:2] * 4 + forms[2:] + ["junk"]))
    if form in ("ep", "ep_valid"):
        if form == "ep":
            k, lo = draw(_integer_texts(odd)), draw(_integer_texts(odd))
            body = ints(draw(st.integers(0, 5)), ws)
        else:
            k, lo, body = map(str, draw(st.sampled_from(_VALID)))
            if not canonical:  # a sign starts a new integer: "3-1" reads as 3 -1
                body = body.replace(" -", draw(st.sampled_from([" -", "-", "\u2003-"])))
                body = body.replace(" ", draw(st.sampled_from([" ", " +", " 0", "\t"])))
        text = (
            f"{gap()}ep{gap()}({gap()}k{gap()}={gap()}{k},{ws()}lo{gap()}={gap()}"
            f"{lo};{ws()}{body}{gap()}){gap()}"
        )
    elif form == "junk":
        text = draw(st.text(alphabet="ep(k=, lo;)0123-+ \u2003\u0663", max_size=30))
    else:
        args = {
            "sym": lambda: f"{ints(1, ws)};{ws()}{ints(draw(st.integers(0, 4)), ws)}",
            "aff": lambda: f"{ints(1, ws)};{ws()}{ints(draw(st.integers(0, 4)), ws)}",
            "shift": lambda: ints(1, ws),
            "sigma": lambda: ints(draw(st.integers(0, 3)), lambda: "," + gap()),
            "sigma_mod": lambda: ints(2, lambda: ","),
            "gamma": lambda: ints(2, lambda: ","),
        }[form]()
        text = f"{gap()}{form}({gap()}{args}{gap()}){gap()}"
    # one character dropped or doubled now and then, short of an integer
    # past the digit limit: one digit fewer is a huge valid integer
    if 0 < len(text) < 1000 and draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + draw(st.sampled_from(["", text[i] * 2])) + text[i + 1 :]
    return text


def _outcome(parse, text):
    try:
        p = parse(text)
    except DemazError as e:
        return type(e), str(e), getattr(e, "pos", None), getattr(e, "violations", None)
    return p, p.chi, p.diff_bound


def _check_pattern_against_scanner(text):
    assert _outcome(parse_perm, text) == _outcome(_parse_scanned, text), repr(text)


@settings(max_examples=400, deadline=None)
@given(_texts())
def test_canonical_pattern_matches_the_scanner(text):
    _check_pattern_against_scanner(text)


@pytest.mark.extended
@settings(max_examples=10000, deadline=None)
@given(_texts())
def test_canonical_pattern_matches_the_scanner_extended(text):
    _check_pattern_against_scanner(text)


@pytest.mark.parametrize(
    "text",
    [
        "ep(k=1, lo=0; 0)",
        "ep(k=+1, lo=-0; +0)",
        "ep(k=01, lo=00; 000)",
        "ep(k=2, lo=0; 3-2)",
        "ep(k=2, lo=0; 3 -2",
        "ep(k=2, lo=0;  3 -2)",
        "ep(k=2, lo=0; 3 - 2)",
        "ep(k=2, lo=0; 3 -)",
        "ep(k=\u0661, lo=0; 0)",
        "ep(k=1, lo=0; 0) ",
        "ep(k=1, lo=0; " + "9" * 5000 + ")",
        "ep(k=1, lo=0; -" + "9" * sys.get_int_max_str_digits() + ")",
        "ep(k=1, lo=" + "9" * 5000 + "; 0)",
        "ep(k=2, lo=0; 0 2)",
        "ep(k=0, lo=0; 0)",
    ],
)
def test_canonical_pattern_matches_the_scanner_at_the_edges(text):
    _check_pattern_against_scanner(text)
