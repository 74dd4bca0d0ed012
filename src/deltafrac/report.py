"""Verification reports: the uniform result record for identity checks.

A report compares two exactly-computed values.  Status ``exact`` means the
two term maps are equal, so both sides are one value and its float gap is
0.0.  Floats only grade a formal failure, as a near-miss or a mismatch.

Every line format of a report is made here and nowhere else: ``text_line()``,
``csv_line()`` under ``CSV_HEADER``, and ``json_line()``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace
from typing import Mapping

from .exact import as_polynomial

__all__ = [
    "EXACT",
    "FLOAT_ONLY",
    "MISMATCH",
    "DOMAIN_EXCLUDED",
    "POLE",
    "FLOAT_RTOL",
    "CSV_HEADER",
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
# fails formally.  An exact report is never graded by it: its gap is 0.0.
FLOAT_RTOL = 1e-9

CSV_HEADER = "identity,status,params,lhs,rhs,abs_float_gap,excluded_by"

# writerow returns what its file's write returns: each row as its line, quoted as csv quotes
_CSV_ROWS = csv.writer(SimpleNamespace(write=str), lineterminator="\n")


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """One parameter point of a check, with both sides rendered.

    An excluded point's boundary value, if any, is ``lhs``; ``excluded_by``
    names its precondition.  ``abs_float_gap`` is 0.0 for an exact report
    and the float gap that graded a formal failure; it is None past a
    double, and for an excluded point or a pole.
    """

    identity: str
    params: Mapping[str, object]
    status: str
    lhs: str = ""
    rhs: str = ""
    abs_float_gap: float | None = None
    excluded_by: str | None = None

    @property
    def is_failure(self) -> bool:
        return self.status in (MISMATCH, FLOAT_ONLY)

    def to_json_dict(self) -> dict:
        doc: dict = {
            "identity": self.identity,
            "params": {k: str(v) for k, v in self.params.items()},
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_float_gap": self.abs_float_gap,
        }
        if self.excluded_by is not None:
            doc["excluded_by"] = self.excluded_by
        return doc

    def text_line(self) -> str:
        parts = [f"[{self.status}]", self.identity]
        parts += [f"{k}={v}" for k, v in self.params.items()]
        if self.status == DOMAIN_EXCLUDED:
            if self.lhs:
                parts.append(f"boundary={self.lhs}")
            parts.append(f"excluded_by={self.excluded_by}")
        else:
            if self.lhs:
                parts.append(f"lhs={self.lhs}")
            if self.rhs:
                parts.append(f"rhs={self.rhs}")
            if self.is_failure and self.abs_float_gap is not None:
                parts.append(f"gap={self.abs_float_gap!r}")
        return " ".join(parts)

    def csv_line(self) -> str:
        """One row under ``CSV_HEADER``; the parameters are one ``key=value;...`` field."""
        params = ";".join(f"{k}={v}" for k, v in self.params.items())
        gap = "" if self.abs_float_gap is None else repr(self.abs_float_gap)
        row = [self.identity, self.status, params, self.lhs, self.rhs, gap, self.excluded_by or ""]
        return _CSV_ROWS.writerow(row)[:-1]

    def json_line(self) -> str:
        """``json.dumps(self.to_json_dict())``, built in one pass with no dict."""
        params = ", ".join(f"{_quote(k)}: {_quote(str(v))}" for k, v in self.params.items())
        gap = self.abs_float_gap
        if gap is None:
            gap_text = "null"
        elif math.isfinite(gap):
            gap_text = repr(gap)
        else:
            # json's spelling of the non-finite floats
            gap_text = "NaN" if gap != gap else ("Infinity" if gap > 0 else "-Infinity")
        excluded = "" if self.excluded_by is None else f', "excluded_by": {_quote(self.excluded_by)}'
        return (
            f'{{"identity": {_quote(self.identity)}, "params": {{{params}}}, '
            f'"status": {_quote(self.status)}, "lhs": {_quote(self.lhs)}, '
            f'"rhs": {_quote(self.rhs)}, "abs_float_gap": {gap_text}{excluded}}}'
        )


def report_compare(identity: str, params: Mapping[str, object], lhs, rhs) -> VerificationReport:
    """Compare two values exactly and classify the outcome.

    ``lhs`` and ``rhs`` may be GammaPolynomial, Fraction or int.  Equal
    term maps are one value, rendered and floated once.  Only a formal
    failure takes both floats, graded by FLOAT_RTOL.
    """
    lhs = as_polynomial(lhs)
    rhs = as_polynomial(rhs)
    lhs_text = lhs.render()
    if lhs == rhs:
        status, rhs_text = EXACT, lhs_text
        gap = None if lhs.to_float() is None else 0.0
    else:
        rhs_text = rhs.render()
        lhs_float, rhs_float = lhs.to_float(), rhs.to_float()
        gap = None
        if lhs_float is not None and rhs_float is not None and math.isfinite(lhs_float - rhs_float):
            gap = abs(lhs_float - rhs_float)
        near = gap is not None and gap <= FLOAT_RTOL * (1 + max(abs(lhs_float), abs(rhs_float)))
        status = FLOAT_ONLY if near else MISMATCH
    return VerificationReport(
        identity=identity,
        params=dict(params),
        status=status,
        lhs=lhs_text,
        rhs=rhs_text,
        abs_float_gap=gap,
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

