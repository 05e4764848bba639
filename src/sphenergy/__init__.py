"""Universal bounds on the potential energy of spherical codes.

The package computes, for a dimension n, a cardinality M and a maximal
inner product s, a linear-programming upper bound on the energy of every
such code under an absolutely monotone kernel, together with the matching
universal lower bound, and verifies concrete codes against the resulting
energy strip.  It exports every public name of its library modules; each
module's ``__all__`` is the one list of them.
"""

# Set before the imports: bounds reads it for the certificate's meta block.
__version__ = "0.1.0"

from . import bounds, codes, errors, levenshtein, orthopoly, potentials
from .bounds import *
from .codes import *
from .errors import *
from .levenshtein import *
from .orthopoly import *
from .potentials import *

__all__ = [
    "__version__",
    *bounds.__all__, *codes.__all__, *errors.__all__,
    *levenshtein.__all__, *orthopoly.__all__, *potentials.__all__,
]
