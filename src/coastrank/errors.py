"""Exception taxonomy shared across the package."""

from __future__ import annotations


class RankingError(Exception):
    """Base class for all package-specific failures."""


class RejectedInputError(RankingError, ValueError):
    """Malformed or out-of-contract input values."""


class DimensionMismatchError(RejectedInputError):
    """Objects built over different item counts were combined."""


class EnumerationLimitError(RankingError, ValueError):
    """An exact enumeration was requested beyond the configured size limit."""


class CapacityError(RankingError, ValueError):
    """A problem instance exceeds a configured solver size limit."""


class TransitivityError(RankingError, ValueError):
    """An operation requiring strict stochastic transitivity got a matrix without it.

    Carries the offending evidence: a witness triple for a transitivity
    violation, or a tied pair when the matrix has an exact 1/2 entry.
    """

    def __init__(self, message: str, witness=None, tied_pair=None):
        super().__init__(message)
        self.witness = witness
        self.tied_pair = tied_pair


class InadmissiblePairError(RankingError, ValueError):
    """A cell split was requested on a pair already ordered by the cell."""


class PartitionIntegrityError(RankingError, ValueError):
    """Cells claimed to tile a sample/support overlap or leave gaps."""


class TreeStateError(RankingError, RuntimeError):
    """A tree operation was called in the wrong lifecycle state."""


class RankingParseError(RankingError, ValueError):
    """A ranking file row failed to parse; carries the 1-based row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


def json_int(value, field: str) -> int:
    """A document's integer field as is; a bool, float, str or other value is refused, by name."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise RejectedInputError(f"{field} must be an integer, got {value!r}")
