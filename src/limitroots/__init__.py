"""Limit roots and limit directions of Lorentzian Coxeter systems.

Spectral computation of limit roots: group elements are enumerated as
matrices, classified by Lorentz-transformation type, and light-like
eigendirections of infinite-order elements (plus their conjugates) yield
dense samples of the limit set, cross-validated against the limits of
infinite reduced words and codimension-2 arrangement intersections.
"""

__version__ = "0.1.0"

from .graphs import CoxeterGraph, builtin, load_graph, universal, dihedral
from .geometry import GeometricSystem, build_form, make_system, signature
from .elements import ElementStore, GroupElement, element_of, enumerate_elements
from .projective import Causal, ProjectivePoint, causal_character, chart_distance, light_conic, to_chart
from .spectral import (
    Kind,
    classify,
    classify_many,
    hyperbolic_directions,
    parabolic_direction,
    unimodular_subspace,
)
from .limits import (
    PeriodicWord,
    PointSet,
    hausdorff,
    power_dynamics,
    sample_limit_roots,
    word_limit_root,
)
from .arrangement import (
    IntersectionKind,
    codim2_spacelike,
    fundamental_weights,
    intersection_equals_unimodular,
    roots_by_depth,
)

__all__ = [
    "CoxeterGraph",
    "GeometricSystem",
    "GroupElement",
    "ElementStore",
    "ProjectivePoint",
    "PointSet",
    "PeriodicWord",
    "Kind",
    "Causal",
    "IntersectionKind",
    "build_form",
    "builtin",
    "causal_character",
    "chart_distance",
    "classify",
    "classify_many",
    "codim2_spacelike",
    "dihedral",
    "element_of",
    "enumerate_elements",
    "fundamental_weights",
    "hausdorff",
    "hyperbolic_directions",
    "intersection_equals_unimodular",
    "light_conic",
    "load_graph",
    "make_system",
    "parabolic_direction",
    "power_dynamics",
    "roots_by_depth",
    "sample_limit_roots",
    "signature",
    "to_chart",
    "unimodular_subspace",
    "universal",
    "word_limit_root",
]
