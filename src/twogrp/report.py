"""Check results, witnesses and per-axiom reports.

Every failed check carries a :class:`Witness`: the index tuple it failed at
and the two unequal composite morphisms, leg by leg.  A passing check never
carries one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import PreconditionFailed


class Status(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not-applicable"
    MISSING_DATA = "missing-data"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Witness:
    """Concrete instance demonstrating a failed law.

    ``left``/``right`` are the two unequal composite morphism ids;
    ``left_path``/``right_path`` list their legs in application order
    (rightmost leg applies first, as in ``h ∘ g ∘ f``).
    """

    index: tuple[str, ...]
    left: str | None = None
    right: str | None = None
    left_path: tuple[str, ...] = ()
    right_path: tuple[str, ...] = ()
    note: str = ""

    def describe(self, legs: bool = False) -> str:
        parts = [f"at ({', '.join(self.index)})"]
        if self.left is not None or self.right is not None:
            parts.append(f"left={self.left} right={self.right}")
        if self.note:
            parts.append(self.note)
        text = ": ".join([parts[0], " ".join(parts[1:])]) if len(parts) > 1 else parts[0]
        if legs and (self.left_path or self.right_path):
            text += "\n    left  = " + " o ".join(self.left_path)
            text += "\n    right = " + " o ".join(self.right_path)
        return text


@dataclass
class CheckResult:
    """Outcome of one law/axiom check."""

    law: str
    status: Status
    witness: Witness | None = None
    instances: int = 0
    mode: str = "exhaustive"
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status is not Status.FAIL

    def line(self, legs: bool = False) -> str:
        text = (
            f"{self.law:<14} {self.status.value:<14} "
            f"instances={self.instances} mode={self.mode} time={self.seconds * 1000:.1f}ms"
        )
        if self.witness is not None:
            text += "\n  witness " + self.witness.describe(legs=legs)
        return text


@dataclass
class Report:
    """Ordered collection of check results, merged associatively."""

    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.status is not Status.FAIL for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status is Status.FAIL]

    def require(self, what: str) -> None:
        """Raise :class:`PreconditionFailed` as ``"<what>: <failing laws>"``
        unless every check passed."""
        if not self.ok:
            raise PreconditionFailed(f"{what}: {', '.join(c.law for c in self.failures())}")

    def add(self, result: CheckResult) -> CheckResult:
        self.checks.append(result)
        return result

    def extend(self, other: "Report", prefix: str = "") -> "Report":
        for c in other.checks:
            self.checks.append(
                CheckResult(prefix + c.law, c.status, c.witness, c.instances, c.mode, c.seconds)
                if prefix
                else c
            )
        self.artifacts.update(other.artifacts)
        return self

    def __getitem__(self, law: str) -> CheckResult:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def __contains__(self, law: str) -> bool:
        return any(c.law == law for c in self.checks)

    def lines(self, legs: bool = False) -> list[str]:
        return [c.line(legs=legs) for c in self.checks]
