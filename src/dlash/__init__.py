"""Mod-2 power operations: Adem relations, windowed Laurent series,
and the action on the dual Steenrod algebra.

A Dyer-Lashof element is a DLSum of words over one GradedClass, read
from text by parse_sum."""

from .f2 import F2Poly, binom_mod2
from .laurent import (
    LaurentSeries,
    Window,
    residue,
    series_compose,
    series_inverse,
    series_mul,
    series_pow,
    series_reversion,
)
from .dyer_lashof import (
    AdemRelation,
    DLSum,
    GradedClass,
    adem_relation,
    reduce_to_admissible,
    symmetry_extract_relations,
)
from .parser import ParseError, parse_sum
from .steenrod import (
    conjugate_zeta,
    q_op,
    q_total_on_zeta,
    zeta_inverse,
    zeta_series,
)

__all__ = [
    "F2Poly",
    "binom_mod2",
    "LaurentSeries",
    "Window",
    "residue",
    "series_compose",
    "series_inverse",
    "series_mul",
    "series_pow",
    "series_reversion",
    "AdemRelation",
    "DLSum",
    "GradedClass",
    "adem_relation",
    "reduce_to_admissible",
    "symmetry_extract_relations",
    "ParseError",
    "parse_sum",
    "conjugate_zeta",
    "q_op",
    "q_total_on_zeta",
    "zeta_inverse",
    "zeta_series",
]

__version__ = "0.1.0"
