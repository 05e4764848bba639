"""The package's public surface: each module's ``__all__`` is the one list."""

import sphenergy
import sphenergy.cli
from sphenergy import bounds, codes, errors, levenshtein, orthopoly, potentials

MODULES = (bounds, codes, errors, levenshtein, orthopoly, potentials)


def test_package_exports_each_module_list_once():
    expected = ["__version__"] + [name for mod in MODULES for name in mod.__all__]
    assert sphenergy.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(sphenergy, name) is vars(mod)[name], name


def test_cli_exports_the_certificate_functions_of_bounds():
    for name in ("certificate_to_dict", "strip_to_dict", "recheck_certificate"):
        assert name in sphenergy.cli.__all__
        assert getattr(sphenergy.cli, name) is getattr(bounds, name)
