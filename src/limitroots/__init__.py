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
from .projective import chart_distances, light_conic, to_chart
from .spectral import (
    Kind,
    classify,
    classify_many,
    light_like_directions,
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
    "PointSet",
    "PeriodicWord",
    "Kind",
    "IntersectionKind",
    "build_form",
    "builtin",
    "chart_distances",
    "classify",
    "classify_many",
    "codim2_spacelike",
    "dihedral",
    "element_of",
    "enumerate_elements",
    "fundamental_weights",
    "hausdorff",
    "intersection_equals_unimodular",
    "light_conic",
    "light_like_directions",
    "load_graph",
    "make_system",
    "power_dynamics",
    "roots_by_depth",
    "sample_limit_roots",
    "signature",
    "to_chart",
    "unimodular_subspace",
    "universal",
    "word_limit_root",
]
