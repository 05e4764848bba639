"""The package's public surface: each module's ``__all__`` is the one list."""

import inspect
import os
import subprocess
import sys

import sphenergy
import sphenergy.cli
from sphenergy import bounds, codes, errors, levenshtein, orthopoly, potentials

MODULES = (bounds, codes, errors, levenshtein, orthopoly, potentials)


def run_python(*args):
    """A fresh interpreter that imports this checkout's sphenergy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphenergy.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_package_exports_each_module_list_once():
    expected = ["__version__"] + [name for mod in MODULES for name in mod.__all__]
    assert sphenergy.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in MODULES:
        assert vars(sphenergy)[mod.__name__.rpartition(".")[2]] is mod
        for name in mod.__all__:
            # a plain binding of the package, not one looked up on use
            assert vars(sphenergy)[name] is vars(mod)[name], name


def test_star_import_and_dir_list_every_codes_name():
    # every module's names, codes' among them
    star = {}
    exec("from sphenergy import *", star)
    listed = dir(sphenergy)
    for mod in MODULES:
        for name in mod.__all__:
            assert star[name] is vars(mod)[name], name
            assert name in listed, name
    assert "codes" in listed


def test_test_only_names_and_keywords_are_not_public():
    # none of these is part of the bound pipeline; the reference oracles
    # among them are in tests/oracles.py
    removed = {
        codes: (
            "distance_distribution", "DistanceDistribution", "dd_system_solve", "DDSolveReport",
            "ez_energy_n5", "EZ_N5_COSINES",
        ),
        potentials: ("derivative_check", "DerivativeReport"),
        orthopoly: ("gegen_coefficient_integral",),
        bounds: ("optimality_probe", "ProbeReport", "PROBE_TOL"),
    }
    listed = dir(sphenergy)
    for mod, names in removed.items():
        for name in names:
            assert name not in sphenergy.__all__ and name not in listed, name
            assert name not in mod.__all__ and not hasattr(mod, name), name
    for name in ("certificate_to_dict", "strip_to_dict", "recheck_certificate"):
        assert name not in sphenergy.cli.__all__
    assert "extra_node" not in inspect.signature(bounds.uub).parameters
    assert "dim_hint" not in inspect.signature(codes.load_code).parameters
    # kernels carry h and h' only
    assert not hasattr(potentials.Potential, "deriv_p")
    assert "deriv_p_fn" not in potentials.Potential._fields
    assert "deriv_p_fn" not in inspect.signature(potentials.make_potential).parameters


def test_imports_raise_no_warning():
    # -W error turns any warning raised while importing into a failure.
    out = run_python("-W", "error", "-c", "import sphenergy.cli")
    assert (out.returncode, out.stderr) == (0, "")
