"""Typed refusals: queries outside the hypotheses of the closed-form criteria,
and inputs beyond an engine limit."""

from __future__ import annotations

from enum import Enum


class ScopeReason(Enum):
    """Names the violated hypothesis of an out-of-scope query."""

    NOT_P_RESTRICTED = "NotPRestricted"
    NOT_COMPLETELY_SPLITTABLE = "NotCompletelySplittable"
    ORDER_HYPOTHESIS_FAILS = "OrderHypothesisFails"
    NOT_P_REGULAR = "NotPRegular"
    CHAR_TWO = "CharTwo"
    NON_DOMINANT = "NonDominant"
    NOT_BIG = "NotBig"


class ScopeError(Exception):
    """Raised when an input violates a hypothesis.

    The closed-form answers say nothing outside their hypotheses, so the
    library refuses instead of inventing a value.
    """

    def __init__(self, reason: ScopeReason, message: str):
        super().__init__(f"{reason.value}: {message}")
        self.reason = reason
        self.message = message


class EngineLimitError(Exception):
    """Raised before work starts when an input would exceed an engine limit.

    Unlike a ScopeError the question is meaningful; answering it would just
    take more time or memory than the limit allows.
    """
