"""Absolutely monotone potential kernels in the inner-product variable.

A kernel h(t) gives the pair energy of two unit vectors with inner
product t; the squared chordal distance is 2(1 - t).  The library
evaluates h and h' only.  Every named kernel is absolutely monotone on
[-1, 1), every derivative nonnegative there: the assumption under which
the node polynomial's sign makes f >= h, which ``uub``'s grid gate checks
directly.  h(1) is never evaluated: kernels that blow up at coincident
points are marked ``finite_at_one = False`` and the code paths guard
that limit.

Every value of h or h' comes from numpy's loop over a 1-D float array:
a scalar is evaluated as a one-element array.  Python's float power and
numpy's 0-d path can differ from that loop in the last bit (for about 5%
of t under the Newton and Riesz kernels), while an entry of the loop does
not depend on its position or on the array's length.  So h' at a node is
the same float whether it is read alone or with the other nodes, as
``bounds.hermite_interpolant`` reads it.
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
    """A pair-energy kernel h with its first derivative h'.

    The label names the kernel and its parameter; ``parse_potential`` reads
    it back.  eval_fn and deriv_fn take a 1-D float array.
    """

    label: str
    finite_at_one: bool
    eval_fn: Callable
    deriv_fn: Callable

    def __repr__(self):
        return f"Potential(label={self.label!r}, finite_at_one={self.finite_at_one!r})"

    def __call__(self, t):
        return _on_array(self.eval_fn, t)

    def deriv(self, t):
        return _on_array(self.deriv_fn, t)


def _on_array(fn, t):
    """fn at t through a 1-D float array: an array keeps its shape, a scalar
    is passed as a one-element array and returned as a float."""
    a = np.asarray(t, dtype=float)
    out = fn(a.reshape(-1))
    return out.reshape(a.shape) if a.ndim else float(out[0])


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
    "custom" takes eval_fn (h) and deriv_fn (h'), which are called with a 1-D
    float array; a result is broadcast to the argument's shape.
    """
    if kind == "newton":
        if n is None or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError("newton kernel needs an integer dimension n >= 2")
        fns = _log_family(0.5) if n == 2 else _riesz_family(float(n - 2))
        return Potential("newton", False, *fns)
    if kind in ("riesz", "gauss"):
        if alpha is None or not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"{kind} kernel needs a finite alpha > 0, got {alpha!r}")
        a = float(alpha)
        # Six significant digits where they name a exactly, else repr: a
        # stored certificate is rechecked by parsing its label back.
        label = f"{kind}:{a:g}" if float(f"{a:g}") == a else f"{kind}:{a!r}"
        fns = (_riesz_family if kind == "riesz" else _gauss_family)(a)
        return Potential(label, kind == "gauss", *fns)
    if kind == "log":
        return Potential("log", False, *_log_family(1.0))
    if kind == "custom":
        if eval_fn is None or deriv_fn is None:
            raise ValueError("custom kernel needs eval_fn and deriv_fn")
        # An outside callable may return a scalar for an array argument.
        def shaped(fn):
            return lambda t: np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)

        return Potential(label or "custom", False, shaped(eval_fn), shaped(deriv_fn))
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
