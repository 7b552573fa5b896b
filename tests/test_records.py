"""The engine's records are NamedTuples (``DTDatum`` a slotted class
that can be weakly referenced): read-only, with the reprs, equality,
hashes and error messages of the frozen dataclasses they replace.  A
record that keeps values on first use keeps them in place."""

import re

import pytest

from skeintor.arith import LatticeBasis, RootOfUnity, kernel_lattice, lambda_hat, lattice_index
from skeintor.checks import CheckResult
from skeintor.qtorus import AntisymMatrix, QuantumTorus
from skeintor.qtrace import TraceTorus, check_thmbtr, trace_torus
from skeintor.ring import GroundRing
from skeintor.surface import DTDatum, FatGraph, standard_datum

FIELDS = {DTDatum: ("graph", "slots")}


def fields(record):
    return tuple(getattr(record, name) for name in FIELDS.get(type(record), getattr(record, "_fields", ())))


def assert_read_only(record, name):
    kept = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is kept


class TestReadOnly:
    def test_lattice_basis_after_first_use(self):
        datum = standard_datum(1, 3)
        span = lambda_hat(datum)
        lattice_index(kernel_lattice(datum, 6), span)
        assert {"_det", "_scaled_inverse"} <= set(vars(span))
        for name in ("ambient", "columns", "_det", "_scaled_inverse"):
            assert_read_only(span, name)
        assert vars(span)["_det"] == span._det

    def test_datum_and_graph_after_first_use(self):
        datum = standard_datum(0, 5)
        graph = datum.graph
        assert datum._tables.face_types and datum.r == 2 and graph.he_curve
        assert {"_tables", "r"} <= set(vars(datum)) and "he_curve" in vars(graph)
        for name in ("graph", "slots", "_tables", "r"):
            assert_read_only(datum, name)
        for name in ("vertices", "edges", "legs", "he_curve"):
            assert_read_only(graph, name)
        for record in (datum, graph, lambda_hat(datum)):
            with pytest.raises(AttributeError):
                record.extra = 1
        assert datum == standard_datum(0, 5)

    def test_records_without_an_instance_dict(self):
        records = [RootOfUnity(5), AntisymMatrix(((0, 1), (-1, 0))), QuantumTorus(AntisymMatrix(((0,),))),
                   GroundRing(("a",)), trace_torus(2), CheckResult("x", True, 1, 0.0),
                   check_thmbtr(trace_torus(2), (3, 1, -2, 1)), standard_datum(0, 4)._tables]
        for record in records:
            assert not hasattr(record, "__dict__"), record
            for name in record._fields:
                assert_read_only(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1


class TestUnchanged:
    def test_reprs(self):
        datum = standard_datum(0, 4)
        graph = "FatGraph(vertices=((0, 1, 2), (3, 4, 5)), edges=((0, 3),), legs=(1, 2, 4, 5))"
        assert repr(RootOfUnity(5)) == "RootOfUnity(n=5)"
        assert repr(datum.graph) == graph
        assert repr(datum) == f"DTDatum(graph={graph}, slots=((0, 1, 2), (3, 4, 5)))"
        assert repr(lambda_hat(datum)) == "LatticeBasis(ambient=2, columns=((2, 0), (0, 1)))"
        assert repr(QuantumTorus(AntisymMatrix(((0, 1), (-1, 0))))) == (
            "QuantumTorus(matrix=AntisymMatrix(rows=((0, 1), (-1, 0))), ring=GroundRing(symbols=()))")
        assert repr(trace_torus(1)) == (
            "TraceTorus(j=1, torus=QuantumTorus(matrix=AntisymMatrix(rows=((0, -2), (2, 0))), "
            "ring=GroundRing(symbols=('b2', 'b3'))))")
        assert repr(check_thmbtr(trace_torus(2), (3, 1, -2, 1))) == (
            "ThmbtrReport(j=2, coord=(3, 1, -2, 1), grading_ok=True, twist_ok=True, lead_ok=True, "
            "reflection_ok=True, violations=[])")
        assert repr(CheckResult("y", True, 3, 0.5)) == (
            "CheckResult(name='y', passed=True, checked=3, elapsed=0.5, detail={})")

    @pytest.mark.parametrize("build, message", [
        (lambda: RootOfUnity(0), "order must be a positive integer"),
        (lambda: LatticeBasis(2, ((1, 0),)), "a basis of Z^2 needs 2 columns of that length"),
        (lambda: LatticeBasis(2, ((1, 0), (0,))), "a basis of Z^2 needs 2 columns of that length"),
        (lambda: AntisymMatrix(((0, 1), (-1,))), "matrix must be square"),
        (lambda: AntisymMatrix(((0, 1), (1, 0))), "matrix must be antisymmetric"),
        (lambda: FatGraph(((0, 1),), (), (0, 1)), "every vertex must be trivalent"),
        (lambda: FatGraph(((0, 1, 2),), (), (0, 1, 2)), "at least one decomposition curve is required"),
        (lambda: FatGraph(((0, 1, 2), (3, 4, 5)), ((0, 0),), (1, 2, 4, 5)),
         "edges must pair distinct existing half-edges"),
        (lambda: DTDatum(standard_datum(0, 4).graph, ((0, 1, 2),)), "one slot tuple per vertex required"),
        (lambda: DTDatum(standard_datum(0, 4).graph, ((1, 0, 2), (3, 4, 5))),
         "legs of vertex 0 must fill the trailing slots"),
    ])
    def test_error_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_equality_and_hash_within_a_type(self):
        # each record equals a separately built equal one, with the hash
        # of its field tuple (the frozen dataclass hash), and differs from
        # one with another field
        d04, d05 = standard_datum(0, 4), standard_datum(0, 5)
        pairs = [
            (lambda: RootOfUnity(5), RootOfUnity(6)),
            (lambda: lambda_hat(standard_datum(0, 4)), lambda_hat(d05)),
            (lambda: standard_datum(0, 4).graph, d05.graph),
            (lambda: standard_datum(0, 4), d05),
            (lambda: AntisymMatrix(((0, 1), (-1, 0))), AntisymMatrix(((0, 2), (-2, 0)))),
            (lambda: QuantumTorus(AntisymMatrix(((0,),)), GroundRing(("a",))), QuantumTorus(AntisymMatrix(((0,),)))),
            (lambda: GroundRing(("a",)), GroundRing()),
            (lambda: TraceTorus(2, trace_torus(2).torus), trace_torus(3)),
        ]
        for build, other in pairs:
            a, b = build(), build()
            assert a is not b and a == b and not a != b
            assert hash(a) == hash(b) == hash(fields(a))
            assert a != other and not a == other
        assert d04._tables == standard_datum(0, 4)._tables
        for a, b in ((CheckResult("x", True, 2, 0.5), CheckResult("x", True, 2, 0.5)),
                     (check_thmbtr(trace_torus(1), (4, -1)), check_thmbtr(trace_torus(1), (4, -1)))):
            assert a is not b and a == b
            with pytest.raises(TypeError):
                hash(a)  # a dict or list field: unhashable, as before
        assert CheckResult("x", True, 2, 0.5) != CheckResult("y", True, 2, 0.5)

    def test_a_check_result_with_no_checks_is_not_a_pass(self):
        r = CheckResult("toy", True, 0, 0.1)
        assert (r.passed, r.checked, r.detail) == (False, 0, {"reason": "no checks ran"})
        assert r.summary(timings=False) == "[FAIL] toy: 0 checks {'reason': 'no checks ran'}"
        a, b = CheckResult("toy", False, 0, 0.1), CheckResult("toy", True, 4, 0.1)
        assert a.detail == b.detail == {} and a.detail is not b.detail
        assert b.passed and b.summary(timings=False) == "[PASS] toy: 4 checks"


class TestMakeAndReplaceCheck:
    """``_make`` and ``_replace`` build a checking record through its
    class, so they check what the constructor checks."""

    def test_root_of_unity(self):
        assert RootOfUnity(5)._replace(n=7) == RootOfUnity._make((7,)) == RootOfUnity(7)
        with pytest.raises(ValueError, match="^order must be a positive integer$"):
            RootOfUnity(5)._replace(n=0)
        with pytest.raises(ValueError, match="^order must be a positive integer$"):
            RootOfUnity._make((True,))

    def test_antisym_matrix(self):
        m = AntisymMatrix(((0, 1), (-1, 0)))
        assert m._replace(rows=((0, 2), (-2, 0))) == AntisymMatrix(((0, 2), (-2, 0)))
        with pytest.raises(ValueError, match="^matrix must be antisymmetric$"):
            m._replace(rows=((1,),))
        with pytest.raises(ValueError, match="^matrix must be square$"):
            AntisymMatrix._make((((0, 1),),))

    def test_lattice_basis(self):
        span = LatticeBasis(2, ((2, 0), (0, 1)))
        # the columns come back in Hermite form
        assert span._replace(columns=((1, 1), (0, 2))) == LatticeBasis._make((2, ((1, 1), (0, 2))))
        assert span._replace(columns=((-2, 0), (2, 1))) == span
        with pytest.raises(ValueError, match="^a basis of Z\\^2 needs 2 columns of that length$"):
            LatticeBasis._make((2, ((1,),)))
        with pytest.raises(ValueError, match="^columns do not span a full-rank sublattice$"):
            span._replace(columns=((1, 2), (2, 4)))

    def test_fat_graph(self):
        graph = standard_datum(0, 4).graph
        assert graph._replace(legs=graph.legs) == FatGraph._make(graph) == graph
        with pytest.raises(ValueError, match="^every half-edge must be an edge side or a leg$"):
            graph._replace(legs=graph.legs[:-1])
        with pytest.raises(ValueError, match="^every vertex must be trivalent$"):
            FatGraph._make((((0, 1),), (), (0, 1)))

    def test_check_result(self):
        # a result with no checks stays a failure, however it is rebuilt
        empty = CheckResult("toy", False, 0, 0.1)
        for rebuilt in (empty._replace(passed=True), CheckResult._make(("toy", True, 0, 0.1, {}))):
            assert not rebuilt.passed and rebuilt.detail == {"reason": "no checks ran"}
        assert CheckResult("toy", True, 4, 0.1)._replace(checked=5) == CheckResult("toy", True, 5, 0.1)
