"""Two-point evaluation codes on Hermitian curves, near-order functions and
the n-order bound on the minimum distance."""

from .field import Field, make_field
from .semigroup import (
    GoodBasisProfile,
    NumericalSemigroup,
    TwoPointSemigroup,
    hyperelliptic_profile,
    ns_from_generators,
    tps_from_gapset,
)
from .bounds import (
    capital_sigma,
    d_goppa,
    d_nord,
    delta,
    n_set,
    n_set_size,
    abc_decomposition,
    lemma62_diagnostic,
    bound_table,
)
from .hermitian import HermitianCurve
from .codes import LinearCode, build_C, build_E, evaluation_points, saturation_index

__all__ = [
    "Field",
    "make_field",
    "GoodBasisProfile",
    "NumericalSemigroup",
    "TwoPointSemigroup",
    "hyperelliptic_profile",
    "ns_from_generators",
    "tps_from_gapset",
    "capital_sigma",
    "d_goppa",
    "d_nord",
    "delta",
    "n_set",
    "n_set_size",
    "abc_decomposition",
    "lemma62_diagnostic",
    "bound_table",
    "HermitianCurve",
    "LinearCode",
    "build_C",
    "build_E",
    "evaluation_points",
    "saturation_index",
]
