"""Exception types raised by the sqw package."""

from __future__ import annotations


class WalkError(Exception):
    """Base class for all sqw errors.

    A subclass that names `_fields` takes one argument per field, keeps each as
    the attribute of that name and formats `_message` with them; any other
    takes its message, as Exception does.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args):
        if not self._fields:
            super().__init__(*args)
            return
        values = dict(zip(self._fields, args, strict=True))
        super().__init__(self._message.format(**values))
        self.__dict__.update(values)


# --- graph / tessellation construction ---------------------------------------


class OutOfRangeVertex(WalkError):
    _fields, _message = ("vertex", "limit"), "vertex {vertex} out of range for {limit} vertices"


class SelfLoop(WalkError):
    _fields, _message = ("vertex",), "self-loop on vertex {vertex} is not allowed"


class EmptyPolygon(WalkError):
    pass


class NotNormalized(WalkError):
    """A vector that must have unit norm does not, beyond tolerance."""


class ZeroAmplitude(WalkError):
    _fields = ("vertex",)
    _message = ("amplitude on vertex {vertex} is zero; polygon vectors "
                "must be nonzero on their whole support")


class NotAClique(WalkError):
    _fields = ("polygon_index", "missing_edge")
    _message = ("polygon {polygon_index} is not a clique: "
                "vertices {missing_edge[0]} and {missing_edge[1]} are not adjacent")


class OverlappingPolygons(WalkError):
    _fields, _message = ("vertex",), "vertex {vertex} belongs to more than one polygon"


class UncoveredVertex(WalkError):
    _fields, _message = ("vertex",), "vertex {vertex} is not covered by any polygon"


class OddRingSize(WalkError):
    _fields, _message = ("size",), "ring size must be an even integer >= 4, got {size}"


class IsolatedVertex(WalkError):
    _fields, _message = ("vertex",), "vertex {vertex} is isolated (degree 0)"


# --- operators ----------------------------------------------------------------


class DimensionMismatch(WalkError):
    _fields, _message = ("expected", "got"), "dimension mismatch: expected {expected}, got {got}"


class EmptyFactorList(WalkError):
    pass


class DimensionCapExceeded(WalkError):
    _fields = ("dimension", "cap")
    _message = "dense matrix of dimension {dimension} exceeds cap {cap}"


# --- simulation ---------------------------------------------------------------


class LabelMismatch(WalkError):
    pass


class WavefrontWrapped(WalkError):
    _fields = ("step", "mass")
    _message = ("wavefront reached the antipodal guard band at step {step} "
                "(probability {mass:.3e}); enlarge the ring")


# --- line analytics -----------------------------------------------------------


class QuadratureNotConverged(WalkError):
    _fields = ("nodes", "deviation", "tol")
    _message = ("quadrature not converged at {nodes} nodes: successive "
                "refinements differ by {deviation:.3e} > {tol:.0e}")


class DegenerateBlock(WalkError):
    pass


class DomainError(WalkError):
    pass


class DegenerateAngle(DomainError):
    _fields = ("name", "value")
    _message = ("angle {name}={value} must lie strictly inside (0, pi) "
                "so both pair amplitudes are nonzero")


# --- coined embedding ---------------------------------------------------------


class UnsupportedCoin(WalkError):
    pass
