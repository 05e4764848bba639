"""Absolutely monotone potential kernels in the inner-product variable.

A kernel h(t) gives the pair energy of two unit vectors with inner
product t; the squared chordal distance is 2(1 - t).  The library
evaluates h and h' only.  Every named kernel is absolutely monotone on
[-1, 1), every derivative nonnegative there: the assumption under which
the node polynomial's sign makes f >= h, which ``uub``'s grid gate checks
directly.  h(1) is never evaluated: kernels that blow up at coincident
points are marked ``finite_at_one = False`` and the code paths guard
that limit.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Potential",
    "make_potential",
    "parse_potential",
]


class Potential(NamedTuple):
    """A pair-energy kernel h with its first derivative h'."""

    label: str
    params: tuple[float, ...]
    finite_at_one: bool
    eval_fn: Callable
    deriv_fn: Callable

    def __repr__(self):
        return f"Potential(label={self.label!r}, params={self.params!r}, finite_at_one={self.finite_at_one!r})"

    def __call__(self, t):
        return self.eval_fn(np.asarray(t, dtype=float)) if np.ndim(t) else float(self.eval_fn(float(t)))

    def deriv(self, t):
        return self.deriv_fn(np.asarray(t, dtype=float)) if np.ndim(t) else float(self.deriv_fn(float(t)))


def _riesz_family(alpha: float):
    # h(t) = (2 - 2t)^(-alpha/2) and h'(t) = alpha (2 - 2t)^(-alpha/2 - 1).
    return (
        lambda t: (2.0 - 2.0 * t) ** (-alpha / 2.0),
        lambda t: alpha * (2.0 - 2.0 * t) ** (-alpha / 2.0 - 1),
    )


def _gauss_family(a: float):
    # h(t) = exp(-a (1 - t)) and h'(t) = a h(t).
    return (
        lambda t: np.exp(-a * (1.0 - t)),
        lambda t: a * np.exp(-a * (1.0 - t)),
    )


def _log_family(scale: float):
    # h(t) = -scale * log(2 - 2t) and h'(t) = scale / (1 - t).
    return (
        lambda t: -scale * np.log(2.0 - 2.0 * t),
        lambda t: scale * (1.0 - t) ** -1.0,
    )


def make_potential(
    kind: str,
    *,
    n: int | None = None,
    alpha: float | None = None,
    eval_fn: Callable | None = None,
    deriv_fn: Callable | None = None,
    label: str | None = None,
) -> Potential:
    """Build a kernel: h and h'.

    kind = "newton" needs the dimension n (exponent n - 2; for n = 2 the
    planar convention -log(2 - 2t) / 2 is used).  kind = "riesz" and
    "gauss" need a finite alpha > 0.  kind = "log" has no parameter.  kind =
    "custom" takes eval_fn (h) and deriv_fn (h'), which must accept ndarray
    arguments; a result is broadcast to the argument's shape.
    """
    if kind == "newton":
        if n is None or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("newton kernel needs an integer dimension n >= 2")
        fns = _log_family(0.5) if n == 2 else _riesz_family(float(n - 2))
        return Potential("newton", (float(n),), False, *fns)
    if kind in ("riesz", "gauss"):
        if alpha is None or not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"{kind} kernel needs a finite alpha > 0, got {alpha!r}")
        a = float(alpha)
        # Six significant digits where they name a exactly, else repr: a
        # stored certificate is rechecked by parsing its label back.
        label = f"{kind}:{a:g}" if float(f"{a:g}") == a else f"{kind}:{a!r}"
        fns = (_riesz_family if kind == "riesz" else _gauss_family)(a)
        return Potential(label, (a,), kind == "gauss", *fns)
    if kind == "log":
        return Potential("log", (), False, *_log_family(1.0))
    if kind == "custom":
        if eval_fn is None or deriv_fn is None:
            raise ValueError("custom kernel needs eval_fn and deriv_fn")
        # An outside callable may return a scalar for an array argument.
        def shaped(fn):
            return lambda t: np.broadcast_to(np.asarray(fn(t), dtype=float), np.shape(t))

        return Potential(label or "custom", (), False, shaped(eval_fn), shaped(deriv_fn))
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
