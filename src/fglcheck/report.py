"""Pass/fail reports with replayable witnesses, shared by all checkers.

A report stores only its checks and meta.  It passes when every check passes;
its witnesses are the failing checks' (name, witness) pairs in check order.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SizeLimit(ValueError):
    """Guard against an exhaustive enumeration or a combinatorial blowup."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: str = None
    details: dict = field(default_factory=dict)

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = {k: str(v) for k, v in self.details.items()}
        return out


@dataclass
class CongruenceReport:
    """Checks and meta; merging two reports concatenates their checks."""

    checks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @staticmethod
    def from_checks(checks, meta=None):
        return CongruenceReport(checks=list(checks), meta=dict(meta or {}))

    @property
    def verdict(self):
        return all(c.passed for c in self.checks)

    @property
    def witnesses(self):
        return [(c.name, c.witness) for c in self.checks if not c.passed]

    def as_check(self, name):
        """This report as one check of a larger one; a failure carries its first witness."""
        ok = self.verdict
        return CheckResult(name, ok, None if ok else str(self.witnesses[:1]))

    def to_json(self):
        return {"verdict": "pass" if self.verdict else "fail",
                "checks": [c.to_json() for c in sorted(self.checks, key=lambda c: c.name)],
                "witnesses": [{"check": n, "witness": str(w)} for n, w in self.witnesses],
                "meta": {k: str(v) for k, v in sorted(self.meta.items())}}

    def summary(self):
        n_pass = sum(1 for c in self.checks if c.passed)
        tag = "PASS" if self.verdict else "FAIL"
        lines = [f"[{tag}] {n_pass}/{len(self.checks)} checks passed"]
        for name, w in self.witnesses:
            lines.append(f"  witness ({name}): {w}")
        return "\n".join(lines)
