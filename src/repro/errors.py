"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` on clearly wrong API use,
etc.) propagate normally.
"""

from __future__ import annotations

import operator

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleError",
    "OracleError",
    "BudgetError",
    "NotSubmodularError",
    "strict_int",
    "strict_str",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidInstanceError(ReproError):
    """An instance (scheduling problem, graph, matroid, ...) is malformed.

    Raised during validation, before any solver runs, so that failures
    point at the input rather than at an algorithm internal.
    """


class InfeasibleError(ReproError):
    """The requested objective cannot be met by any solution.

    For example: scheduling all jobs when some job has an empty slot set,
    or requesting a prize-collecting value threshold larger than the total
    achievable value.
    """


class OracleError(ReproError):
    """A value oracle was queried outside its contract.

    The online (secretary) oracles raise this when queried about elements
    that have not arrived yet, mirroring the paper's restriction that the
    oracle answers only for sets of already-interviewed secretaries.
    """


class BudgetError(ReproError):
    """A budget/threshold parameter is out of its valid range."""


class NotSubmodularError(ReproError):
    """A function expected to be submodular violated the lattice inequality.

    Raised by :func:`repro.core.submodular.check_submodular` when given a
    witness-producing mode, carrying the violating triple for debugging.
    """

    def __init__(self, message: str, witness: tuple | None = None) -> None:
        super().__init__(message)
        self.witness = witness


# -- JSON-boundary field readers --------------------------------------------
#
# Files (checkpoints, manifests, serve specs) are read through these so a
# wrong type is an error naming the field, never a silent coercion.


def strict_int(value: object, field: str) -> int:
    """*value* as an ``int``, or an error naming *field*.

    Bools and non-integers (strings, floats) are rejected rather than
    coerced: ``true`` must not silently read as 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)  # type: ignore[arg-type]
        except TypeError:
            pass
    raise InvalidInstanceError(f"{field} must be an integer, got {value!r}")


def strict_str(value: object, field: str) -> str:
    """*value* as a ``str``, or an error naming *field*."""
    if isinstance(value, str):
        return value
    raise InvalidInstanceError(f"{field} must be a string, got {value!r}")
