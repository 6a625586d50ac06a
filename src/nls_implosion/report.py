"""Structured pass/fail reporting for the inequality checks.

Margins use the sign convention "positive = pass"; a check passes when its
margin exceeds the required margin (default 0).  Reports are append-only and
deterministic: identical inputs and tolerances produce identical serialized
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict


@dataclass(frozen=True)
class CheckResult:
    name: str
    statement: str
    samples: str
    margin: float
    worst_location: str
    passed: bool
    required_margin: float = 0.0


@dataclass
class VerificationReport:
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, statement: str, samples: str, margin: float,
            worst_location: str = "", required_margin: float = 0.0) -> CheckResult:
        result = CheckResult(
            name=name,
            statement=statement,
            samples=samples,
            margin=float(margin),
            worst_location=worst_location,
            passed=bool(margin > required_margin),
            required_margin=required_margin,
        )
        self.checks.append(result)
        return result

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def payload(self) -> dict:
        """The JSON-ready report."""
        return {
            "params": self.params,
            "tolerances": self.tolerances,
            "checks": [asdict(c) for c in self.checks],
            "all_passed": self.all_passed,
        }

    def to_text(self) -> str:
        lines = []
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name:<{width}}  margin={c.margin:+.6e}  "
                         f"{c.worst_location}")
        lines.append(f"{'ALL PASS' if self.all_passed else 'FAILURES PRESENT'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return "\n".join(lines)
