"""Exception types shared across the package."""

from __future__ import annotations


class DemazError(Exception):
    """Base class for all library errors."""


class InvalidPermutation(DemazError):
    """A window representation fails the bijectivity checks.

    Carries the list of violations produced by ``validate``.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class InvalidGeneratorSet(DemazError):
    """A transposition index set contains two consecutive integers."""


class ResourceLimit(DemazError):
    """A window or grid would exceed the configured size cap."""


class ParseError(DemazError):
    """Malformed textual input; reports the offending position."""

    def __init__(self, message: str, text: str = "", pos: int = 0):
        snippet = text[pos : pos + 24]
        super().__init__(f"{message} at position {pos}: {snippet!r}")
        self.text = text
        self.pos = pos


class _WitnessError(DemazError):
    """An error that may carry a witness cell (a, b), named in its message."""

    def __init__(self, message: str, cell=None):
        super().__init__(f"{message} (witness cell {cell})" if cell else message)
        self.cell = cell


class NotSubmodular(_WitnessError):
    """A slipface has a negative mixed second difference somewhere.

    ``cell`` is a witness (a, b) with Delta s(a, b) < 0.
    """


class NotASlipface(_WitnessError):
    """Grid data violates the unit-step axioms; carries a witness cell."""


class AsymptoteMismatch(_WitnessError):
    """Rank grid frame disagrees with the required asymptote values."""


class InconsistentSlipface(_WitnessError):
    """A slipface does not come from any representable permutation."""


class ClosureVerification(DemazError):
    """A computed slipface left its proven band or failed validation."""


class NotDominated(_WitnessError):
    """Reduction target is not below the Demazure product; carries a witness."""


class InfiniteInversions(DemazError):
    """Inversion count requested for a permutation with infinitely many."""


class OracleExtremum(DemazError):
    """Brute-force search found no unique extremum where one is guaranteed."""


class InternalInconsistency(DemazError):
    """A runtime self-check failed; indicates a bug, not bad input."""
