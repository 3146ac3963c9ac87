"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """An argument is outside the domain of the operation."""


class OutOfRangeError(DomainError):
    """The input exceeds the range for which the answer would be provably correct."""


def labelled(what, f, *args):
    """f(*args), with what() prefixed to the message of an OutOfRangeError.

    The label is built only when that error happens, so it may name numbers
    that would be costly, or too long, to print on every call.
    """
    try:
        return f(*args)
    except OutOfRangeError as e:
        raise OutOfRangeError(f"{what()}: {e}") from None


def decimal(m: int) -> str:
    """m in decimal, or its size when Python refuses so long a conversion."""
    try:
        return str(m)
    except ValueError:
        return f"a {m.bit_length()}-bit integer"


class BudgetError(RuntimeError):
    """A configured resource budget (iterations, size) was exhausted.

    Raised instead of returning a possibly wrong or partial answer.
    """


@dataclass(frozen=True)
class HypothesisCheck:
    """Outcome of a single named hypothesis check."""

    check: str
    ok: bool
    detail: str = ""


class HypothesisRejection(Exception):
    """A construction was rejected because a hypothesis check failed."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        super().__init__(f"{check}: {detail}" if detail else check)
