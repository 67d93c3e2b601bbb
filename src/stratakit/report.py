"""Machine-readable reports: deterministic JSON, one witness per failure."""

from __future__ import annotations

import json

from . import __version__
from .linalg import Value


def jsonable(x):
    """Coerce nested results into JSON-serializable primitives, exactly (a ``Fraction`` as "-2/5")."""
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if isinstance(x, float):
        raise TypeError("floating point has no place in these reports")
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=str)
        return [jsonable(v) for v in items]
    return str(x)


class Check(Value):
    name: str
    criterion: str
    verdict: str              # PASS | FAIL | YES | NO | ERROR
    witness: object = None    # required for FAIL/ERROR
    details: object = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "criterion": self.criterion,
            "verdict": self.verdict,
            "witness": jsonable(self.witness),
            "details": jsonable(self.details),
        }

    @property
    def failed(self) -> bool:
        return self.verdict in ("FAIL", "ERROR")


class Report(Value, frozen=False):
    mode: str
    input_name: str
    input_sha256: str | None
    seed: int
    options: dict = {}
    checks: list[Check] = []
    timing_ms: int | None = None

    def __post_init__(self) -> None:
        # each report owns its options and checks, never the shared defaults
        self.options, self.checks = dict(self.options), list(self.checks)

    def add(self, check: Check) -> None:
        if check.failed and check.witness is None:
            raise ValueError(f"failing check {check.name} must carry a witness")
        self.checks.append(check)

    @property
    def ok(self) -> bool:
        return not any(c.failed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "tool": "stratakit",
            "version": __version__,
            "mode": self.mode,
            "input": {"name": self.input_name, "sha256": self.input_sha256},
            "seed": self.seed,
            "options": jsonable(self.options),
            "checks": [c.to_json() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": sum(1 for c in self.checks if not c.failed),
                "failed": sum(1 for c in self.checks if c.failed),
                "verdict": "PASS" if self.ok else "FAIL",
            },
            "timing": None if self.timing_ms is None else {"wall_ms": self.timing_ms},
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        lines = [f"stratakit {__version__} — mode {self.mode} — input {self.input_name}"]
        for c in self.checks:
            lines.append(f"  [{c.verdict:>4}] {c.name}: {c.criterion}")
            if c.failed and c.witness is not None:
                lines.append(f"         witness: {jsonable(c.witness)}")
        lines.append(f"summary: {'PASS' if self.ok else 'FAIL'} "
                     f"({sum(1 for c in self.checks if not c.failed)}/{len(self.checks)})")
        return "\n".join(lines) + "\n"


def sha256_bytes(raw: bytes) -> str:
    # CPython's built-in SHA-256, as ``random`` takes its sha512: ``hashlib``
    # loads OpenSSL's ``_hashlib``, which costs milliseconds on every start
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(raw).hexdigest()
