"""Verification reports: the uniform result record for identity checks.

A report compares two exactly-computed values.  Status ``exact`` means the
formal difference is the zero polynomial; the float fields exist only to
cross-check the exact path and to classify near-misses honestly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .exact import GammaPolynomial, as_polynomial

__all__ = [
    "EXACT",
    "FLOAT_ONLY",
    "MISMATCH",
    "DOMAIN_EXCLUDED",
    "POLE",
    "FLOAT_RTOL",
    "VerificationReport",
    "report_compare",
    "report_excluded",
]

EXACT = "exact"
FLOAT_ONLY = "float_only"
MISMATCH = "mismatch"
DOMAIN_EXCLUDED = "domain_excluded"
POLE = "pole"

# Relative tolerance separating float_only from mismatch when a comparison
# fails formally.  Exact reports must also satisfy this bound; that is the
# cross-check on the float path itself.
FLOAT_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class VerificationReport:
    identity: str
    params: Mapping[str, object]
    status: str
    lhs: str = ""
    rhs: str = ""
    abs_float_gap: float | None = None
    excluded_by: str | None = None
    lhs_float: float | None = field(default=None, repr=False)

    @property
    def is_failure(self) -> bool:
        return self.status in (MISMATCH, FLOAT_ONLY)

    def params_rendered(self) -> list[tuple[str, str]]:
        return [(k, str(v)) for k, v in self.params.items()]

    def to_json_dict(self) -> dict:
        doc: dict = {
            "identity": self.identity,
            "params": {k: v for k, v in self.params_rendered()},
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_float_gap": self.abs_float_gap,
        }
        if self.excluded_by is not None:
            doc["excluded_by"] = self.excluded_by
        return doc


def _finite_float(value: GammaPolynomial) -> float | None:
    """The float value, or None when it does not fit in a double."""
    try:
        result = value.to_float()
    except OverflowError:
        return None
    return result if math.isfinite(result) else None


def report_compare(identity: str, params: Mapping[str, object], lhs, rhs) -> VerificationReport:
    """Compare two values and classify the outcome.

    ``lhs`` and ``rhs`` may be GammaPolynomial, GammaMonomial, Fraction or
    int.  The comparison is exact; floats only grade a formal failure, and
    a side that does not fit in a double leaves the gap None.
    """
    lhs = as_polynomial(lhs)
    rhs = as_polynomial(rhs)
    lhs_float = _finite_float(lhs)
    rhs_float = _finite_float(rhs)
    gap = None
    if lhs_float is not None and rhs_float is not None and math.isfinite(lhs_float - rhs_float):
        gap = abs(lhs_float - rhs_float)
    if lhs == rhs:
        status = EXACT
    elif gap is not None and gap <= FLOAT_RTOL * (1 + max(abs(lhs_float), abs(rhs_float))):
        status = FLOAT_ONLY
    else:
        status = MISMATCH
    return VerificationReport(
        identity=identity,
        params=dict(params),
        status=status,
        lhs=lhs.render(),
        rhs=rhs.render(),
        abs_float_gap=gap,
        lhs_float=lhs_float,
    )


def report_excluded(
    identity: str,
    params: Mapping[str, object],
    precondition: str,
    boundary=None,
) -> VerificationReport:
    """A parameter point the identity does not claim; names the precondition.

    ``boundary`` optionally carries the value computed at the excluded
    point (rendered into ``lhs``) so boundary behavior stays visible.
    """
    lhs = ""
    if boundary is not None:
        lhs = as_polynomial(boundary).render()
    return VerificationReport(
        identity=identity,
        params=dict(params),
        status=DOMAIN_EXCLUDED,
        lhs=lhs,
        excluded_by=precondition,
    )

