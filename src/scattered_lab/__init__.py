"""Scattered linearized polynomials over finite fields.

Exact computation of scatteredness, subspace stabilizers in GL(2, q^n),
standard forms and equivalence, the associated rank-distance codes with
their right idealizers, and the homology structure of the derived translation
planes, at desk scale.
"""

from .errors import ScatteredLabError
from .field_tower import FieldSpec, FieldTower, field_from_json, make_field
from .linearized import LinearizedPoly
from .scatter import (
    LinearSet,
    is_scattered,
    is_scattered_naive,
    linear_set,
    slope_census,
)
from .stabilizer import (
    DiagonalizationResult,
    Mat2,
    MatrixField,
    compute_stabilizer,
    diagonalize,
    verify_field,
)
from .standard_form import (
    EquivalenceResult,
    StandardFormResult,
    canonicalize,
    gammal_equivalent,
    gl_equivalent,
    to_standard_form,
)
from .mrd import min_distance, min_distance_naive, right_idealizer
from .plane import (
    HomologyReport,
    PseudoregulusCase,
    ReducibilityWitness,
    Spread,
    build_spread,
    classify_central_collineations,
    kernel_scalar_audit,
    linear_collineations,
    reducibility_witness,
    semilinear_part_audit,
    verify_spread_axioms,
)

__version__ = "0.1.0"

# the family constructors, imported on first use: a command that builds no
# family does not compile or run the module
_FAMILY_NAMES = (
    "FamilyInstance",
    "catalog",
    "find_family3_delta",
    "find_family4_delta",
    "find_lp_delta",
    "find_psi_h",
    "make_family3",
    "make_family4",
    "make_lp",
    "make_pseudoregulus",
    "make_psi",
    "psi_standard_form_closed",
    "psi_theta",
)


def __getattr__(name):
    """`families` and its names, loaded on first access (PEP 562)."""
    if name == "families" or name in _FAMILY_NAMES:
        # `from . import families` would ask this hook for `families` again
        import importlib

        families = importlib.import_module(".families", __name__)
        return families if name == "families" else getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["families", *_FAMILY_NAMES])
