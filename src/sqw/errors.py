"""Exception types raised by the sqw package."""

from __future__ import annotations


class WalkError(Exception):
    """Base class for all sqw errors."""


# --- graph / tessellation construction ---------------------------------------


class OutOfRangeVertex(WalkError):
    def __init__(self, vertex, limit):
        super().__init__(f"vertex {vertex} out of range for {limit} vertices")
        self.vertex = vertex
        self.limit = limit


class SelfLoop(WalkError):
    def __init__(self, vertex):
        super().__init__(f"self-loop on vertex {vertex} is not allowed")
        self.vertex = vertex


class EmptyPolygon(WalkError):
    pass


class NotNormalized(WalkError):
    """A vector that must have unit norm does not, beyond tolerance."""


class ZeroAmplitude(WalkError):
    def __init__(self, vertex):
        super().__init__(f"amplitude on vertex {vertex} is zero; polygon vectors "
                         "must be nonzero on their whole support")
        self.vertex = vertex


class NotAClique(WalkError):
    def __init__(self, polygon_index, missing_edge):
        u, v = missing_edge
        super().__init__(f"polygon {polygon_index} is not a clique: "
                         f"vertices {u} and {v} are not adjacent")
        self.polygon_index = polygon_index
        self.missing_edge = missing_edge


class OverlappingPolygons(WalkError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex} belongs to more than one polygon")
        self.vertex = vertex


class UncoveredVertex(WalkError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex} is not covered by any polygon")
        self.vertex = vertex


class OddRingSize(WalkError):
    def __init__(self, size):
        super().__init__(f"ring size must be an even integer >= 4, got {size}")
        self.size = size


class DegenerateAngle(WalkError):
    def __init__(self, name, value):
        super().__init__(f"angle {name}={value} must lie strictly inside (0, pi) "
                         "so both pair amplitudes are nonzero")
        self.name = name
        self.value = value


class IsolatedVertex(WalkError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex} is isolated (degree 0)")
        self.vertex = vertex


# --- operators ----------------------------------------------------------------


class DimensionMismatch(WalkError):
    def __init__(self, expected, got):
        super().__init__(f"dimension mismatch: expected {expected}, got {got}")
        self.expected = expected
        self.got = got


class EmptyFactorList(WalkError):
    pass


class DimensionCapExceeded(WalkError):
    def __init__(self, dimension, cap):
        super().__init__(f"dense matrix of dimension {dimension} exceeds cap {cap}")
        self.dimension = dimension
        self.cap = cap


# --- simulation ---------------------------------------------------------------


class LabelMismatch(WalkError):
    pass


class WavefrontWrapped(WalkError):
    def __init__(self, step, mass):
        super().__init__(f"wavefront reached the antipodal guard band at step {step} "
                         f"(probability {mass:.3e}); enlarge the ring")
        self.step = step
        self.mass = mass


# --- line analytics -----------------------------------------------------------


class QuadratureNotConverged(WalkError):
    def __init__(self, nodes, deviation, tol):
        super().__init__(f"quadrature not converged at {nodes} nodes: successive "
                         f"refinements differ by {deviation:.3e} > {tol:.0e}")
        self.nodes = nodes
        self.deviation = deviation
        self.tol = tol


class DegenerateBlock(WalkError):
    pass


class DomainError(WalkError):
    pass


# --- coined embedding ---------------------------------------------------------


class UnsupportedCoin(WalkError):
    pass
