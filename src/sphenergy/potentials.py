"""Absolutely monotone potential kernels in the inner-product variable.

A kernel h(t) gives the pair energy of two unit vectors with inner
product t; the squared chordal distance is 2(1 - t).  All named kernels
are nondecreasing on [-1, 1) with nonnegative derivatives of every
order there, which is what the bound machinery needs.  h(1) is never
evaluated: kernels that blow up at coincident points are marked
``finite_at_one = False`` and the code paths guard that limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "DerivativeReport",
    "make_potential",
    "parse_potential",
    "derivative_check",
]


@dataclass(frozen=True)
class Potential:
    """A pair-energy kernel with first derivative and optional higher ones."""

    kind: str
    label: str
    params: tuple[float, ...]
    finite_at_one: bool
    eval_fn: Callable = field(repr=False)
    deriv_fn: Callable = field(repr=False)
    deriv_p_fn: Callable | None = field(repr=False, default=None)

    def __call__(self, t):
        return self.eval_fn(np.asarray(t, dtype=float)) if np.ndim(t) else float(self.eval_fn(float(t)))

    def deriv(self, t):
        return self.deriv_fn(np.asarray(t, dtype=float)) if np.ndim(t) else float(self.deriv_fn(float(t)))

    def deriv_p(self, t, p: int):
        """p-th derivative; p = 0 is the kernel itself."""
        if not isinstance(p, (int, np.integer)) or p < 0:
            raise ValueError(f"derivative order must be a nonnegative integer, got {p!r}")
        if p == 0:
            return self(t)
        if p == 1:
            return self.deriv(t)
        if self.deriv_p_fn is None:
            raise ValueError(f"potential {self.label!r} does not provide order-{p} derivatives")
        out = self.deriv_p_fn(np.asarray(t, dtype=float), int(p))
        return out if np.ndim(t) else float(out)


def _riesz_family(alpha: float):
    # h(t) = (2 - 2t)^(-alpha/2); the p-th derivative multiplies by
    # alpha (alpha + 2) ... (alpha + 2(p-1)) and deepens the exponent by p.
    def ev(t):
        return (2.0 - 2.0 * t) ** (-alpha / 2.0)

    def dp(t, p):
        fac = 1.0
        for j in range(p):
            fac *= alpha + 2.0 * j
        return fac * (2.0 - 2.0 * t) ** (-alpha / 2.0 - p)

    return ev, (lambda t: dp(t, 1)), dp


def _gauss_family(a: float):
    # h(t) = exp(-a (1 - t)); each derivative multiplies by a.
    def ev(t):
        return np.exp(-a * (1.0 - t))

    def dp(t, p):
        return a**p * np.exp(-a * (1.0 - t))

    return ev, (lambda t: dp(t, 1)), dp


def _log_family(scale: float):
    # h(t) = -scale * log(2 - 2t); derivatives are scale * (p-1)! / (1-t)^p.
    def ev(t):
        return -scale * np.log(2.0 - 2.0 * t)

    def dp(t, p):
        return scale * math.factorial(p - 1) * (1.0 - t) ** (-float(p))

    return ev, (lambda t: dp(t, 1)), dp


def make_potential(
    kind: str,
    *,
    n: int | None = None,
    alpha: float | None = None,
    eval_fn: Callable | None = None,
    deriv_fn: Callable | None = None,
    deriv_p_fn: Callable | None = None,
    label: str | None = None,
) -> Potential:
    """Build a kernel.

    kind = "newton" needs the dimension n (exponent n - 2; for n = 2 the
    planar convention -log(2 - 2t) / 2 is used).  kind = "riesz" and
    "gauss" need alpha > 0.  kind = "log" has no parameter.  kind =
    "custom" takes eval_fn and deriv_fn (deriv_p_fn optional), which must
    accept ndarray arguments.
    """
    if kind == "newton":
        if n is None or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("newton kernel needs an integer dimension n >= 2")
        if n == 2:
            ev, d1, dp = _log_family(0.5)
        else:
            ev, d1, dp = _riesz_family(float(n - 2))
        return Potential("newton", "newton", (float(n),), False, ev, d1, dp)
    if kind in ("riesz", "gauss"):
        if alpha is None or not alpha > 0:
            raise ValueError(f"{kind} kernel needs alpha > 0")
        a = float(alpha)
        # Six significant digits where they name a exactly, else repr: a
        # stored certificate is rechecked by parsing its label back.
        label = f"{kind}:{a:g}" if float(f"{a:g}") == a else f"{kind}:{a!r}"
        ev, d1, dp = (_riesz_family if kind == "riesz" else _gauss_family)(a)
        return Potential(kind, label, (a,), kind == "gauss", ev, d1, dp)
    if kind == "log":
        ev, d1, dp = _log_family(1.0)
        return Potential("log", "log", (), False, ev, d1, dp)
    if kind == "custom":
        if eval_fn is None or deriv_fn is None:
            raise ValueError("custom kernel needs eval_fn and deriv_fn")
        return Potential(
            "custom", label or "custom", (), False, eval_fn, deriv_fn, deriv_p_fn
        )
    raise ValueError(f"unknown potential kind {kind!r}")


def parse_potential(text: str, n: int) -> Potential:
    """Parse a command-line kernel string: newton | riesz:a | gauss:a | log."""
    name, sep, arg = text.partition(":")
    if name == "newton" and not sep:
        return make_potential("newton", n=n)
    if name == "log" and not sep:
        return make_potential("log")
    if name in ("riesz", "gauss"):
        if not sep:
            raise ValueError(f"{name} kernel needs a parameter, e.g. {name}:1")
        try:
            alpha = float(arg)
        except ValueError:
            raise ValueError(f"bad {name} parameter {arg!r}") from None
        return make_potential(name, alpha=alpha)
    raise ValueError(f"unknown potential {text!r}")


@dataclass(frozen=True)
class DerivativeReport:
    order: int
    grid_size: int
    max_rel_dev: float


def derivative_check(pot: Potential, order: int, grid) -> DerivativeReport:
    """Compare analytic derivatives with central finite differences on a grid."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("grid must be a nonempty 1-D sequence")
    if np.max(t) >= 1.0 or np.min(t) < -1.0:
        raise ValueError("grid points must lie in [-1, 1)")
    step = 1e-5 * np.maximum(1.0, np.abs(t))
    step = np.minimum(step, 0.25 * (1.0 - t))
    up, dn = pot(t + step), pot(t - step)
    if order == 1:
        approx = (up - dn) / (2.0 * step)
        exact = np.asarray(pot.deriv(t), dtype=float)
    else:
        approx = (up - 2.0 * pot(t) + dn) / step**2
        exact = np.asarray(pot.deriv_p(t, 2), dtype=float)
    dev = np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))
    return DerivativeReport(order, t.size, float(np.max(dev)))
