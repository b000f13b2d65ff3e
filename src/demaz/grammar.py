"""Textual permutation expressions.

The accepted forms are

    sym(<off>; v1 v2 ... vd)        finite rearrangement of [off, off+d-1]
    aff(<k>; v0 ... v_{k-1})        fully periodic modulo k
    shift(<chi>)                    the translation n -> n - chi
    sigma(n1,n2,...)                adjacent transpositions at a finite set
    sigma_mod(<n>,<k>)              adjacent transpositions at n + kZ
    gamma(<m>,<n>)                  order-preserving two-block shuffle
    ep(k=<k>, lo=<lo>; v_lo ... v_hi)   raw window form

Integers are ASCII decimal (digits 0-9) with an optional sign and at most
sys.get_int_max_str_digits() digits.  ``format_perm`` always emits the
canonical ep(...) form, and ``parse_perm(format_perm(p)) == p``.
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .perm import (
    Permutation,
    ResidueClass,
    from_window,
    make_affine,
    make_from_one_line,
    make_gamma,
    make_shift,
    make_sigma_set,
)

__all__ = ["parse_perm", "format_perm"]

# integers are ASCII decimal: str.isdigit and int() also accept other scripts
_INT = re.compile(r"[+-]?[0-9]+")
# a whitespace-separated run of them; a sign starts a new integer
_INT_RUN = re.compile(r"[+-]?[0-9]+(?:\s*[+-]?[0-9]+)*")
# the canonical text format_perm writes, read without the scanner
_CANONICAL = re.compile(
    r"ep\(k=([+-]?[0-9]+), lo=([+-]?[0-9]+); ([+-]?[0-9]+(?: [+-]?[0-9]+)*)\)"
)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str) -> None:
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def peek(self, token: str) -> bool:
        self.skip_ws()
        return self.text.startswith(token, self.pos)

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        token = _INT.match(self.text, self.pos)
        if token is None:
            raise self.error("expected an integer")
        self.pos = token.end()
        return self._ints(token)[0]

    def int_list_ws(self) -> list[int]:
        self.skip_ws()
        run = _INT_RUN.match(self.text, self.pos)
        if run is not None:
            self.pos = run.end()
            self.skip_ws()
        # no integer here, or the run stopped at a sign with no digits after it
        if run is None or self.text.startswith(("+", "-"), self.pos):
            raise self.error("expected an integer")
        return self._ints(run)

    def _ints(self, span: re.Match) -> list[int]:
        try:
            return [int(t) for t in _INT.findall(span.group())]
        except ValueError:  # int() refuses over sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            tokens = _INT.finditer(self.text, span.start(), span.end())
            self.pos = next(t.start() for t in tokens if len(t[0].lstrip("+-")) > limit)
            raise self.error(f"integer of more than {limit} digits") from None

    def int_list_comma(self) -> list[int]:
        self.skip_ws()
        if self.peek(")"):
            return []
        out = [self.integer()]
        while self.peek(","):
            self.expect(",")
            out.append(self.integer())
        return out

    def end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")


def parse_perm(text: str) -> Permutation:
    """Parse one permutation expression; errors carry the failing position.

    Canonical text is read by one pattern match; every other form, and
    canonical text holding an integer past the digit limit, by the scanner,
    which accepts the same canonical texts with the same values.
    """
    ep = _CANONICAL.fullmatch(text)
    if ep is not None:
        try:
            k, lo, vals = int(ep[1]), int(ep[2]), list(map(int, ep[3].split(" ")))
        except ValueError:  # past the digit limit: the scanner locates it
            pass
        else:
            return from_window(k, lo, vals)
    return _parse_scanned(text)


def _parse_scanned(text: str) -> Permutation:
    """parse_perm by the scanner alone: every form, and every error."""
    sc = _Scanner(text)
    head = sc.ident()
    sc.expect("(")
    if head == "sym":
        off = sc.integer()
        sc.expect(";")
        vals = sc.int_list_ws()
        sc.expect(")")
        sc.end()
        return make_from_one_line(vals, off)
    if head == "aff":
        k = sc.integer()
        sc.expect(";")
        vals = sc.int_list_ws()
        sc.expect(")")
        sc.end()
        return make_affine(vals, k)
    if head == "shift":
        chi = sc.integer()
        sc.expect(")")
        sc.end()
        return make_shift(chi)
    if head == "sigma":
        members = sc.int_list_comma()
        sc.expect(")")
        sc.end()
        return make_sigma_set(members)
    if head == "sigma_mod":
        n = sc.integer()
        sc.expect(",")
        k = sc.integer()
        sc.expect(")")
        sc.end()
        return make_sigma_set(ResidueClass(n, k))
    if head == "gamma":
        m = sc.integer()
        sc.expect(",")
        n = sc.integer()
        sc.expect(")")
        sc.end()
        return make_gamma(m, n)
    if head == "ep":
        sc.expect("k")
        sc.expect("=")
        k = sc.integer()
        sc.expect(",")
        sc.expect("lo")
        sc.expect("=")
        lo = sc.integer()
        sc.expect(";")
        vals = sc.int_list_ws()
        sc.expect(")")
        sc.end()
        return from_window(k, lo, vals)
    sc.pos = 0
    raise sc.error(f"unknown form {head!r}")


def format_perm(p: Permutation) -> str:
    """Canonical textual form; inverse of parse_perm on canonical values."""
    # a list display of str() calls joins faster than map(str, ...) or a
    # generator on CPython 3.11 and 3.12
    body = " ".join([str(v) for v in p.vals])
    return f"ep(k={p.period}, lo={p.lo}; {body})"
