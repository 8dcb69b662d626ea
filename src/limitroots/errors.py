"""Exception types shared across the package."""


class GraphError(ValueError):
    """Invalid Coxeter graph data (bad labels, duplicate edges, missing c-parameters)."""


class NotLorentzianError(RuntimeError):
    """An operation requiring signature (n-1, 1, 0) was called on another system."""


class NumericalError(RuntimeError):
    """The numerics could not resolve an element, a subspace or an enumeration."""


class BorderlineSpectrumError(NumericalError):
    """Spectral data too close to a type boundary to classify reliably."""


class ClassificationError(NumericalError):
    """Element could not be resolved into elliptic/parabolic/hyperbolic."""


class ExtractionError(NumericalError):
    """Eigendirection or subspace extraction failed at tolerance."""


class EnumerationError(NumericalError):
    """The small-root build, which words and roots are read with, met a pairing it cannot decide."""
