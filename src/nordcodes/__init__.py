"""Two-point evaluation codes on Hermitian curves, near-order functions and
the n-order bound on the minimum distance.

The exports below resolve on first use (PEP 562), so `import nordcodes`
loads no submodule and a caller pays only for the layers it touches.
"""

import importlib

_EXPORTS = {
    "field": ("Field", "make_field"),
    "semigroup": ("GoodBasisProfile", "NumericalSemigroup", "TwoPointSemigroup",
                  "hyperelliptic_profile", "ns_from_generators"),
    "bounds": ("capital_sigma", "d_goppa", "d_nord", "n_set", "n_set_size",
               "lemma62_diagnostic", "bound_table"),
    "hermitian": ("HermitianCurve",),
    "codes": ("LinearCode", "build_C", "build_E", "evaluation_points", "saturation_index"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
