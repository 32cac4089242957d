"""Uniform PASS/FAIL reporting for the checking operations."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str = ""


@dataclass
class Report:
    title: str
    checks: list[Check] = dataclasses.field(default_factory=list)
    warnings: list[str] = dataclasses.field(default_factory=list)

    def add(self, name: str, passed: bool, witness: str = "") -> None:
        self.checks.append(Check(name, bool(passed), witness))

    def expect_none(self, name: str, offenders: list[str], label: str = "") -> None:
        """Pass ``name`` exactly when there are no offenders; else the witness
        lists them after ``label`` joined by ", ", or without one by "; "."""
        witness = f"{label}: " + ", ".join(offenders) if label else "; ".join(offenders)
        self.add(name, not offenders, witness if offenders else "")

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            suffix = f": {c.witness}" if c.witness else ""
            out.append(f"[{tag}] {c.name}{suffix}")
        for w in self.warnings:
            out.append(f"warning: {w}")
        return out
