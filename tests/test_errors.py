import pytest

from sqw import errors
from sqw.errors import WalkError

# Each WalkError subclass: sample arguments, the message they make, and the attributes kept.
CASES = {
    errors.OutOfRangeVertex: ((7, 5), "vertex 7 out of range for 5 vertices",
                              {"vertex": 7, "limit": 5}),
    errors.SelfLoop: ((3,), "self-loop on vertex 3 is not allowed", {"vertex": 3}),
    errors.ZeroAmplitude: ((2,), "amplitude on vertex 2 is zero; polygon vectors must be "
                                 "nonzero on their whole support", {"vertex": 2}),
    errors.NotAClique: ((4, (1, 9)), "polygon 4 is not a clique: vertices 1 and 9 are not "
                                     "adjacent", {"polygon_index": 4, "missing_edge": (1, 9)}),
    errors.OverlappingPolygons: ((6,), "vertex 6 belongs to more than one polygon",
                                 {"vertex": 6}),
    errors.UncoveredVertex: ((8,), "vertex 8 is not covered by any polygon", {"vertex": 8}),
    errors.OddRingSize: ((5,), "ring size must be an even integer >= 4, got 5", {"size": 5}),
    errors.DegenerateAngle: (("alpha", 0.0), "angle alpha=0.0 must lie strictly inside "
                                             "(0, pi) so both pair amplitudes are nonzero",
                             {"name": "alpha", "value": 0.0}),
    errors.IsolatedVertex: ((1,), "vertex 1 is isolated (degree 0)", {"vertex": 1}),
    errors.DimensionMismatch: ((4, [2, 4]), "dimension mismatch: expected 4, got [2, 4]",
                               {"expected": 4, "got": [2, 4]}),
    errors.DimensionCapExceeded: ((5000, 4096), "dense matrix of dimension 5000 exceeds "
                                                "cap 4096", {"dimension": 5000, "cap": 4096}),
    errors.WavefrontWrapped: ((12, 3.25e-9), "wavefront reached the antipodal guard band at "
                                             "step 12 (probability 3.250e-09); enlarge the "
                                             "ring", {"step": 12, "mass": 3.25e-9}),
    errors.QuadratureNotConverged: ((1024, 2.5e-7, 1e-10), "quadrature not converged at 1024 "
                                    "nodes: successive refinements differ by 2.500e-07 > "
                                    "1e-10", {"nodes": 1024, "deviation": 2.5e-7,
                                              "tol": 1e-10}),
    # message-only errors: the message is the one argument
    errors.EmptyPolygon: (("no vertex",), "no vertex", {}),
    errors.NotNormalized: (("norm 2",), "norm 2", {}),
    errors.EmptyFactorList: (("no factor",), "no factor", {}),
    errors.LabelMismatch: (("one label each",), "one label each", {}),
    errors.DegenerateBlock: (("diagonal",), "diagonal", {}),
    errors.DomainError: (("alpha=4",), "alpha=4", {}),
    errors.UnsupportedCoin: (("coin 'x'",), "coin 'x'", {}),
}


def test_table_covers_every_walk_error():
    assert set(CASES) == set(WalkError.__subclasses__())


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_message_and_attributes(cls):
    args, message, attributes = CASES[cls]
    exc = cls(*args)
    assert isinstance(exc, WalkError)
    assert str(exc) == message
    for name, value in attributes.items():
        assert getattr(exc, name) == value
