"""Universal bounds on the potential energy of spherical codes.

The package computes, for a dimension n, a cardinality M and a maximal
inner product s, a linear-programming upper bound on the energy of every
such code under an absolutely monotone kernel, together with the matching
universal lower bound, and verifies concrete codes against the resulting
energy strip.  It exports every public name of its library modules; each
module's ``__all__`` is the one list of them.  ``codes`` is imported on
first use of it or of one of its names, since the bound pipeline never
needs it.
"""

# Set before the imports: bounds reads it for the certificate's meta block.
__version__ = "0.1.0"

from importlib import import_module as _import_module

from . import bounds, errors, levenshtein, orthopoly, potentials
from .bounds import *
from .errors import *
from .levenshtein import *
from .orthopoly import *
from .potentials import *

# codes.__all__, in its order; the package test checks that they agree.
_CODES_ALL = [
    "SphericalCode", "StripVerdict", "load_code", "generate", "energy", "separation",
    "moments", "verify_strip", "ez_separation",
]

__all__ = [
    "__version__",
    *bounds.__all__, *_CODES_ALL, *errors.__all__,
    *levenshtein.__all__, *orthopoly.__all__, *potentials.__all__,
]


def __getattr__(name):
    # Not cached here, so code that rebinds a name in codes is seen through the
    # package too; `from . import codes` would call this function again.
    if name != "codes" and name not in _CODES_ALL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    codes = _import_module(".codes", __name__)
    return codes if name == "codes" else getattr(codes, name)


def __dir__():
    return sorted({*globals(), "codes", *_CODES_ALL})
