"""Deterministic pass/fail reports shared by all axiom checkers.

A report carries the check name, the short tag echoed in CLI output, the
swept window description, and the lexicographically first witness on
failure.  Rendering is plain text with no timestamps so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

from collections import namedtuple


class CheckReport(namedtuple("CheckReport", "name label passed window witness details", defaults=(None, ()))):
    __slots__ = ()

    def headline(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name} ({self.label}): {status}, {self.window}"
        if self.witness:
            line += f"; first witness: {self.witness}"
        return line

    def lines(self) -> list[str]:
        out = [self.headline()]
        out.extend(f"  {d}" for d in self.details)
        return out

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "label": self.label,
            "passed": self.passed,
            "window": self.window,
            "witness": self.witness,
            "details": list(self.details),
        }


def all_passed(reports) -> bool:
    return all(r.passed for r in reports)
