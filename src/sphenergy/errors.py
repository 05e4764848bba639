"""Exception types shared across the package, and the gate table.

Argument validation uses plain ValueError; the classes below mark failure
modes that callers (and the CLI exit-code mapping) need to tell apart.

A gate is a row (gate, value, allowed): it passes when value <= allowed,
so a NaN value fails.  ``_require`` is the one place that refuses a row.
"""

__all__ = [
    "CertificationError",
    "InfeasibleClassError",
    "InfiniteEnergyError",
    "NumericsError",
]


class InfeasibleClassError(ValueError):
    """The requested cardinality exceeds the Levenshtein bound for (n, s)."""


class CertificationError(RuntimeError):
    """A computed object failed one of its own certification checks."""


class NumericsError(RuntimeError):
    """A numerical routine did not converge to the requested accuracy."""


class InfiniteEnergyError(ValueError):
    """Energy diverges: coincident points under a kernel unbounded at t = 1."""


def _failing(rows) -> list:
    # The rows (gate, value, allowed) whose value is not at most its limit; NaN fails.
    return [row for row in rows if not row[1] <= row[2]]


def _require(rows) -> None:
    """Raise CertificationError at the first failing row (gate, value, allowed)."""
    for gate, value, allowed in _failing(rows)[:1]:
        raise CertificationError(f"{gate} {value:.3e} exceeds the allowed {allowed:.3e}")
