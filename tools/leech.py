"""Build the 196,560 minimal vectors of the Leech lattice and check them
against the energy strip of their class under the Newton kernel.

The vectors come from the extended binary Golay code (Conway and Sloane,
Sphere Packings, Lattices and Groups, ch. 4).  Scaled by sqrt(8) they are
the integer vectors of norm 32 of the shapes (+-2^8, 0^16) on an octad with
an even number of minus signs, (-+3, +-1^23) with the upper signs on a
codeword, and (+-4^2, 0^22).  Usage, on one CPU with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 taskset -c 0 python3 tools/leech.py

It prints the build and ``verify_strip`` wall times, the peak RSS of the
process, the verdict's flags, and the energy's relative error against the
exact value from the distance distribution 4600/47104/93150/47104/4600/1.
It exits 1, naming what failed, unless the key order of
``codes._antipodal_half`` paired the vectors, the verdict is sharp, inside,
attains both bounds and has its nodes covering the products, and the
relative error is at most 1e-13.  It is the only full-size run of the
wide-row tiles of ``codes._row_blocks`` and of a 196,560-row key pairing.
One run of that command on a 2-core Intel Xeon (Python 3.11.7, numpy
2.4.6) built the vectors in 0.07 s and ran ``verify_strip`` in 27.3 s at a
peak RSS of 108.5 MB, so it is not part of the test suite;
``tests/test_codes.py`` checks the construction on a slice.
"""

import itertools
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

# Coefficients of x^0 .. x^11 in g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11,
# the generator of the cyclic Golay code of length 23.
GOLAY_GENERATOR = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)

# Inner products of a minimal vector with the others, scaled to the unit
# sphere, and how many of the others have each.
DISTANCE_DISTRIBUTION = {
    Fraction(1, 2): 4600,
    Fraction(1, 4): 47104,
    Fraction(0): 93150,
    Fraction(-1, 4): 47104,
    Fraction(-1, 2): 4600,
    Fraction(-1): 1,
}


def golay_codewords() -> np.ndarray:
    """The 4096 words of the extended Golay code, a 4096 x 24 array of 0 and
    1: the cyclic code of g(x) of length 23 with a parity bit appended."""
    gen = np.zeros((12, 24), dtype=np.int64)
    for k in range(12):
        gen[k, k : k + 12] = GOLAY_GENERATOR
    gen[:, 23] = gen[:, :23].sum(axis=1) % 2
    messages = (np.arange(4096)[:, None] >> np.arange(12)) & 1
    return messages @ gen % 2


def leech_minimal_vectors() -> np.ndarray:
    """The 196,560 minimal vectors of the Leech lattice scaled by sqrt(8): an
    int64 array of rows of norm 32."""
    words = golay_codewords()
    octads = np.flatnonzero(words.sum(axis=1) == 8)
    signs = np.array([s for s in itertools.product((1, -1), repeat=8) if s.count(-1) % 2 == 0])
    twos = np.zeros((octads.size, signs.shape[0], 24), dtype=np.int64)
    support = np.nonzero(words[octads])[1].reshape(octads.size, 8)
    octad, sign = np.ogrid[: octads.size, : signs.shape[0]]
    twos[octad[..., None], sign[..., None], support[:, None, :]] = 2 * signs
    odd = np.repeat(2 * words - 1, 24, axis=0)
    odd[np.arange(odd.shape[0]), np.tile(np.arange(24), 4096)] *= -3
    fours = []
    for i, j in itertools.combinations(range(24), 2):
        for si, sj in itertools.product((4, -4), repeat=2):
            row = np.zeros(24, dtype=np.int64)
            row[i], row[j] = si, sj
            fours.append(row)
    return np.vstack([twos.reshape(-1, 24), odd, np.array(fours)])


def exact_newton_energy() -> Fraction:
    """E = M sum_t A_t (2 - 2t)^-11, the Newton energy in R^24."""
    return 196560 * sum(a / (2 - 2 * t) ** 11 for t, a in DISTANCE_DISTRIBUTION.items())


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from sphenergy.codes import SphericalCode, _antipodal_half, verify_strip
    from sphenergy.potentials import make_potential

    start = time.perf_counter()
    code = SphericalCode(leech_minimal_vectors() / np.sqrt(32.0))
    built = time.perf_counter()
    verdict = verify_strip(code, make_potential("newton", n=24))
    done = time.perf_counter()
    exact = exact_newton_energy()
    error = float((Fraction(verdict.energy) - exact) / exact)
    print(f"points {code.size} in R^{code.dim}")
    print(f"build_s {built - start:.2f}  verify_strip_s {done - built:.2f}")
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    print(f"separation {verdict.separation!r}  m {verdict.strip.uub_cert.quad.m}")
    print(f"sharp {verdict.strip.sharp}  inside {verdict.inside}  attains_uub {verdict.attains_uub}  "
          f"attains_ulb {verdict.attains_ulb}  nodes_cover_products {verdict.nodes_cover_products}")
    print(f"energy {verdict.energy!r}  exact {float(exact)!r}  relative_error {error:.3e}")
    checks = {
        "paired": _antipodal_half(code.points) is not None,
        "sharp": verdict.strip.sharp,
        "inside": verdict.inside,
        "attains_uub": verdict.attains_uub,
        "attains_ulb": verdict.attains_ulb,
        "nodes_cover_products": verdict.nodes_cover_products,
        "relative_error": abs(error) <= 1e-13,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
