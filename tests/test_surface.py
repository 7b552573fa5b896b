import gc
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pants import add2

from skeintor import checks, ring, surface
from skeintor.qtorus import AntisymMatrix, QuantumTorus, elem_mul, lead_term, tilde_q
from skeintor.qtrace import lead_violation, trace_torus, utr_coord, utr_coord_straight
from skeintor.surface import (
    DTDatum,
    FatGraph,
    d_embed,
    face_split,
    glued_key,
    glued_product,
    lambda_global,
    lambda_membership,
    length_rule,
    phi_value,
    project_faces,
    q_matrix,
    standard_datum,
    surface_torus,
)

d04 = standard_datum(0, 4)
d05 = standard_datum(0, 5)
d12 = standard_datum(1, 2)
d20 = standard_datum(2, 0)


def box(datum, nmax, tmax):
    for n in itertools.product(range(0, nmax + 1), repeat=datum.r):
        for t in itertools.product(range(-tmax, tmax + 1), repeat=datum.r):
            c = n + t
            if lambda_global(datum, c):
                yield c


def glued_verdict(datum, coord, value=None):
    """The lead verdict on the glued trace of ``coord``, or on ``value``,
    as the program takes it."""
    value = phi_value(datum, coord) if value is None else value
    return lead_violation(coord, value, datum.r, glued_key(datum.r))


def sample_member(rng, datum, nmax=5, tmax=5):
    while True:
        n = tuple(rng.randint(0, nmax) for _ in range(datum.r))
        t = tuple(rng.randint(-tmax, tmax) for _ in range(datum.r))
        if lambda_global(datum, n + t):
            return n + t


class TestStandardDatum:
    def test_small_sphere(self):
        assert d04.r == 1
        assert d04.graph.genus == 0 and d04.graph.punctures == 4
        assert [d04.face_type(v) for v in range(2)] == [1, 1]

    def test_theta(self):
        assert d20.r == 3
        assert d20.graph.genus == 2 and d20.graph.punctures == 0
        assert [d20.face_type(v) for v in range(2)] == [3, 3]

    def test_chains_and_rings(self):
        assert [d05.face_type(v) for v in range(3)] == [1, 2, 1]
        assert [d12.face_type(v) for v in range(2)] == [2, 2]
        d27 = standard_datum(2, 3)
        assert d27.r == 6 and d27.graph.genus == 2 and d27.graph.punctures == 3
        d30 = standard_datum(3, 0)
        assert d30.r == 6 and d30.graph.genus == 3
        d31 = standard_datum(3, 1)
        assert d31.r == 7 and d31.graph.genus == 3 and d31.graph.punctures == 1
        # higher-genus data still support the whole pipeline
        assert lambda_global(d31, (0,) * 14)
        coord = (2,) * 7 + (1, 0, -1, 0, 2, 0, 0)
        assert lambda_global(d31, coord)
        assert glued_verdict(d31, coord) is None

    def test_excluded(self):
        for g, m in [(1, 0), (1, 1), (0, 0), (0, 3), (-1, 5)]:
            with pytest.raises(ValueError):
                standard_datum(g, m)

    def test_json_round_trip(self):
        for datum in (d04, d05, d12, d20, standard_datum(1, 3), standard_datum(2, 2)):
            text = datum.to_json()
            again = DTDatum.from_json(text)
            assert again == datum
            assert again.to_json() == text

    def test_numbering_condition_enforced(self):
        # a two-holed face whose second slot carries the later curve is rejected
        graph = FatGraph(
            vertices=((1, 0, 2), (4, 3, 5)),
            edges=((0, 3), (2, 4)),
            legs=(1, 5),
        )
        with pytest.raises(ValueError):
            DTDatum(graph, ((0, 2, 1), (3, 4, 5)))

    def test_fatgraph_validation(self):
        with pytest.raises(ValueError):
            FatGraph(((0, 1),), ((0, 1),), ())  # not trivalent
        with pytest.raises(ValueError):
            FatGraph(((0, 1, 2),), ((0, 1),), ())  # half-edge 2 dangles

    def test_disconnected_rejected(self):
        # two copies of the theta graph once passed as a genus-3 surface
        g = d20.graph
        shift = 1 + max(max(v) for v in g.vertices)
        with pytest.raises(ValueError, match="connected"):
            FatGraph(
                g.vertices + tuple(tuple(h + shift for h in v) for v in g.vertices),
                g.edges + tuple((a + shift, b + shift) for a, b in g.edges),
                (),
            )


class TestDatumFields:
    """A fatgraph and a datum built from lists copy them into tuples, so
    the caller's lists cannot change them afterwards."""

    def test_lists_are_copied(self):
        vertices, edges, legs = [[1, 0, 2], [3, 4, 5]], [[0, 1], [2, 3]], [4, 5]
        slots = [[0, 1, 2], [3, 4, 5]]
        datum = DTDatum(FatGraph(vertices, edges, legs), slots)
        want = DTDatum(FatGraph(((1, 0, 2), (3, 4, 5)), ((0, 1), (2, 3)), (4, 5)), ((0, 1, 2), (3, 4, 5)))
        assert datum == want and hash(datum) == hash(want)
        tables = datum._tables
        slots[1][0], slots[1][1] = slots[1][1], slots[1][0]
        vertices[0].reverse()
        edges[1][1] = 5
        legs.append(9)
        # the swapped slots are what the constructor rejects
        with pytest.raises(ValueError, match="trailing slots"):
            DTDatum(want.graph, slots)
        assert datum == want and datum._tables is tables
        assert datum.slots == ((0, 1, 2), (3, 4, 5))
        assert datum.graph.vertices == ((1, 0, 2), (3, 4, 5))
        assert datum.graph.edges == ((0, 1), (2, 3)) and datum.graph.legs == (4, 5)

    def test_leg_symbols_are_read_only(self):
        tables = standard_datum(0, 5)._tables
        with pytest.raises(TypeError):
            tables.leg_symbol_index[0] = 1
        assert list(tables.leg_symbol_index.values()) == list(range(len(tables.symbols)))


class TestQMatrix:
    def test_sphere_four(self):
        assert q_matrix(d04).rows == ((0,),)

    def test_theta_regression(self):
        # frozen value for the counterclockwise corner convention
        assert q_matrix(d20).rows == ((0, -2, 2), (2, 0, -2), (-2, 2, 0))

    def test_he_curve_is_read_only(self):
        # q_matrix and the datum tables read the curves of the half-edges
        # from he_curve, so a store into it must raise, not change them
        datum = standard_datum(2, 0)
        with pytest.raises(TypeError):
            datum.graph.he_curve[0] = 1
        assert q_matrix(datum).rows == ((0, -2, 2), (2, 0, -2), (-2, 2, 0))
        assert dict(datum.graph.he_curve) == {h: c for c, pair in enumerate(datum.graph.edges) for h in pair}

    def test_antisymmetry_all_standard(self):
        for datum in (d04, d05, d12, d20, standard_datum(1, 4), standard_datum(2, 1)):
            q = q_matrix(datum)
            for i in range(q.dim):
                for j in range(q.dim):
                    assert q.rows[i][j] == -q.rows[j][i]

    def test_rotation_invariance(self):
        # rotating a vertex's cyclic order leaves the corner counts alone
        g = d20.graph
        rotated = FatGraph(
            (g.vertices[0][1:] + g.vertices[0][:1],) + g.vertices[1:], g.edges, g.legs
        )
        assert q_matrix(DTDatum(rotated, d20.slots)).rows == q_matrix(d20).rows

    def test_tilde_blocks(self):
        # the pants sign: u_c x_c = q^2 x_c u_c
        assert tilde_q(q_matrix(d04)).rows == ((0, -2), (2, 0))
        tq = tilde_q(q_matrix(d20))
        q = q_matrix(d20)
        for i in range(3):
            for j in range(3):
                assert tq.rows[i][j] == q.rows[i][j]
                assert tq.rows[i][3 + j] == (-2 if i == j else 0)
                assert tq.rows[3 + i][j] == (2 if i == j else 0)
                assert tq.rows[3 + i][3 + j] == 0

    def test_matches_face_torus_commutation(self):
        # the corner counts must reproduce the form the face tori realize:
        # summing the face-level x-commutation exponents over all slot
        # pairs of the two curves gives the same matrix
        from skeintor.qtrace import trace_torus

        for datum in (d04, d05, d12, d20, standard_datum(2, 1), standard_datum(1, 3)):
            tb = datum._tables
            r = datum.r
            realized = [[0] * r for _ in range(r)]
            for v, curves in enumerate(tb.face_curves):
                rows = trace_torus(tb.face_types[v]).torus.matrix.rows
                for s1, c1 in enumerate(curves):
                    for s2, c2 in enumerate(curves):
                        if c1 != c2:
                            realized[c1][c2] += rows[s1][s2]
            assert tuple(tuple(row) for row in realized) == q_matrix(datum).rows

    def test_even_pairing_on_span(self):
        # members of the span pair evenly under the doubled form, even far
        # outside the small acceptance boxes
        rng = random.Random(99)
        from skeintor.arith import lambda_hat

        for datum in (d05, d20, standard_datum(2, 1)):
            span = lambda_hat(datum)
            tq = tilde_q(q_matrix(datum))
            cols = [list(c) for c in span.columns]
            dim = 2 * datum.r
            for _ in range(300):
                x = [rng.randint(-20, 20) for _ in range(dim)]
                y = [rng.randint(-20, 20) for _ in range(dim)]
                k = [sum(c[i] * w for c, w in zip(cols, x)) for i in range(dim)]
                l = [sum(c[i] * w for c, w in zip(cols, y)) for i in range(dim)]
                assert tq.pairing(k, l) % 2 == 0

    def test_pairing_formula(self):
        # block pairing = <n,n'>_Q - 2 n.t' + 2 n'.t
        rng = random.Random(0)
        q = q_matrix(d05)
        tq = tilde_q(q)
        for _ in range(300):
            n, t, n2, t2 = (tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(4))
            lhs = tq.pairing(n + t, n2 + t2)
            rhs = (
                q.pairing(n, n2)
                - 2 * sum(a * b for a, b in zip(n, t2))
                + 2 * sum(a * b for a, b in zip(n2, t))
            )
            assert lhs == rhs


class TestSurfaceTorus:
    def test_kept_on_the_datum(self):
        datum = standard_datum(0, 5)
        torus = surface_torus(datum)
        assert surface_torus(datum) is torus
        assert torus.matrix == tilde_q(q_matrix(datum))
        # an equal datum builds its own torus, and nothing outside the
        # datum holds on to it
        assert surface_torus(standard_datum(0, 5)) is not torus
        ref = weakref.ref(datum)
        del datum
        gc.collect()
        assert ref() is None


class TestLambdaGlobal:
    def test_examples(self):
        assert lambda_global(d04, (2, 2))
        assert not lambda_global(d04, (1, 0))
        assert not lambda_global(d04, (0, -1))
        assert lambda_global(d04, (0, 0))

    def test_witnesses(self):
        ok, why = lambda_membership(d04, (1, 0))
        assert not ok and "odd" in why
        ok, why = lambda_membership(d04, (0, -1))
        assert not ok and "twist" in why

    def test_monoid_closure(self):
        rng = random.Random(1)
        for datum in (d04, d05, d12, d20):
            for _ in range(1500):
                a = sample_member(rng, datum)
                b = sample_member(rng, datum)
                assert lambda_global(datum, tuple(x + y for x, y in zip(a, b)))


def reference_length_rule(datum, n):
    """The row of ``n`` built afresh from the face lengths: the odd-face
    witness and the twist floors as a list, each curve's the sum of half
    the oracle's Add values of its two sides, empty when a face is odd."""
    tb = datum._tables
    lengths = [tuple(n[c] for c in curves) for curves in tb.face_curves]
    for v, face_n in enumerate(lengths):
        if sum(face_n) % 2:
            return f"odd boundary sum {face_n} at face {v}", []
    floors = []
    for c, x in enumerate(n):
        if x:
            floors.append(None)
        else:
            (v1, s1), (v2, s2) = tb.sides[c]
            floors.append(add2(tb.face_types[v1], s1 + 1, lengths[v1]) // 2
                          + add2(tb.face_types[v2], s2 + 1, lengths[v2]) // 2)
    return "", floors


def alternate_datum():
    return TestAlternateDatum().build()


def reference_core(datum, coord):
    """The lengths of ``coord``, with its twists at the curves of length 0
    and 0 at the others."""
    n, t = coord[: datum.r], coord[datum.r :]
    return n + tuple(0 if x else y for x, y in zip(n, t))


class TestCoreRule:
    """A coordinate is in the monoid exactly when its core is, with the
    same witness; phi_value raises that witness for a non-member."""

    @pytest.mark.parametrize("make", [
        lambda: standard_datum(0, 4), lambda: standard_datum(0, 5),
        lambda: standard_datum(1, 2), lambda: standard_datum(2, 0), alternate_datum,
    ], ids=["0,4", "0,5", "1,2", "2,0", "alternate"])
    def test_membership_is_the_cores(self, make):
        datum = make()
        kinds = set()
        for n in itertools.product(range(-1, 3), repeat=datum.r):
            for t in itertools.product(range(-3, 4), repeat=datum.r):
                verdict = lambda_membership(datum, n + t)
                assert verdict == lambda_membership(datum, reference_core(datum, n + t)), n + t
                if not verdict[0]:
                    kinds.add(verdict[1].split(" ", 1)[0])
                    with pytest.raises(ValueError) as raised:
                        phi_value(datum, n + t)
                    assert str(raised.value) == f"coordinate not in the monoid: {verdict[1]}"
        assert not datum._cores
        assert kinds == {"odd", "twist", "negative"}
        # a coordinate of the wrong length has no core: both raise in split_nt
        for wrong in ((0,) * (2 * datum.r - 1), (0,) * (2 * datum.r + 1)):
            for call in (lambda_membership, phi_value):
                with pytest.raises(ValueError, match=f"must have length {2 * datum.r}"):
                    call(datum, wrong)


class TestLengthRows:
    """length_rule keeps one row per length vector on the datum; the
    reference builds it afresh from the face lengths."""

    @pytest.mark.parametrize("make", [
        lambda: standard_datum(0, 4), lambda: standard_datum(0, 5),
        lambda: standard_datum(1, 2), lambda: standard_datum(2, 0), alternate_datum,
    ], ids=["0,4", "0,5", "1,2", "2,0", "alternate"])
    def test_rows_match_the_reference(self, make):
        datum = make()
        lengths = list(itertools.product(range(7), repeat=datum.r))
        for n in lengths:
            odd, floors = reference_length_rule(datum, n)
            assert length_rule(datum, n) == (odd, tuple(floors)), n
        # warm, every row is read back as kept
        assert len(datum._rows) == len(lengths)
        for n in lengths:
            odd, floors = reference_length_rule(datum, n)
            assert length_rule(datum, n) is datum._rows[n] == (odd, tuple(floors)), n

    def test_row_is_immutable_and_kept(self):
        datum = standard_datum(0, 5)
        row = length_rule(datum, (2, 0))
        assert row == ("", (None, -1))
        assert length_rule(datum, (2, 0)) is row
        with pytest.raises(TypeError):
            row[1][1] = 0
        with pytest.raises(TypeError):
            row[0] = "odd"
        odd = length_rule(datum, (1, 2))
        assert odd == ("odd boundary sum (1,) at face 0", ()) and length_rule(datum, (1, 2)) is odd

    def test_membership_fills_rows_of_non_negative_lengths_only(self):
        datum = standard_datum(0, 5)
        for c in ((2, 0, 0, 0), (2, 0, 5, -1), (1, 2, 0, 0), (-1, 2, 0, 0), (0, -2, 0, 0)):
            lambda_membership(datum, c)
        assert list(datum._rows) == [(2, 0), (1, 2)]

    def test_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(ring, "KEPT_MAX", 3)
        datum = standard_datum(1, 2)
        lengths = [(k, 0) for k in range(6)]
        for n in lengths:
            length_rule(datum, n)
            assert len(datum._rows) <= 3
        assert list(datum._rows) == lengths[-3:]
        # an evicted row is built again, to the same value
        assert length_rule(datum, (0, 0)) == ("", (0, 0))
        assert list(datum._rows) == lengths[-2:] + [(0, 0)]

    def test_dropped_datum_goes_without_a_collection(self):
        gc.disable()
        try:
            datum = standard_datum(2, 0)
            for n in itertools.product(range(3), repeat=3):
                lambda_membership(datum, n + (0, 0, 0))
            assert datum._rows
            ref = weakref.ref(datum)
            del datum
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("datum, coord, why", [
        (d05, (1, 2, 0, 0), "odd boundary sum (1,) at face 0"),
        (d05, (2, 1, 0, 0), "odd boundary sum (1, 2) at face 1"),
        (d20, (1, 0, 0, 0, 0, 0), "odd boundary sum (1, 0, 0) at face 0"),
        (d05, (-1, 2, 0, 0), "negative length coordinate"),
        (d05, (-1, 1, 0, 0), "negative length coordinate"),
        (d04, (0, -1), "twist -1 at curve 0 below bound 0/2"),
        (d05, (2, 0, 0, -2), "twist -2 at curve 1 below bound -2/2"),
        (d20, (2, 2, 0, 0, 0, -1), "twist -1 at curve 2 below bound 0/2"),
        (d12, (0, 2, -1, 5), "twist -1 at curve 0 below bound 4/2"),
    ])
    def test_witnesses_unchanged(self, datum, coord, why):
        # each twice: from a fresh row, then from the kept one
        assert lambda_membership(datum, coord) == (False, why)
        assert lambda_membership(datum, coord) == (False, why)
        assert lambda_membership(datum, list(coord)) == (False, why)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError, match="must have length 4"):
            lambda_membership(d05, (2, 2, 0))


class TestDEmbed:
    def test_examples(self):
        assert d_embed(d04, (2, 2)) == (2, 2)
        assert d_embed(d05, (1, 3, 0, -1)) == (4, -1, 0, 1)

    def test_matches_the_split_formula(self):
        rng = random.Random(7)
        for datum in (d04, d05, d12, d20, standard_datum(2, 3)):
            r = datum.r
            for _ in range(200):
                c = tuple(rng.randint(-6, 6) for _ in range(2 * r))
                n, t = tuple(c[:r]), tuple(c[r:])
                want = (sum(n), sum(t)) + t[:-1] + n[:-1]
                assert d_embed(datum, c) == want
                assert d_embed(datum, list(c)) == want

    @pytest.mark.parametrize("coord", [(2, 2, 0), (2,), (), (1, 2, 3, 4, 5)])
    def test_wrong_length_raises(self, coord):
        with pytest.raises(ValueError, match="must have length 4"):
            d_embed(d05, coord)

    def test_injective(self):
        rng = random.Random(2)
        for datum in (d05, d20):
            seen = {}
            for _ in range(2000):
                c = tuple(rng.randint(-6, 6) for _ in range(2 * datum.r))
                v = d_embed(datum, c)
                assert seen.setdefault(v, c) == c


class TestFaceSplit:
    def test_examples(self):
        assert [c for _, c in face_split(d04, (2, 2))] == [(2, 1), (2, 1)]
        assert [c for _, c in face_split(d04, (2, 4))] == [(2, 3), (2, 1)]

    def test_faces_admissible_and_matched(self):
        from skeintor.pants import lambda_contains

        rng = random.Random(3)
        for datum in (d04, d05, d12, d20):
            tb = datum._tables
            for _ in range(400):
                coord = sample_member(rng, datum)
                n = coord[: datum.r]
                splits = face_split(datum, coord)
                total_t = [0] * datum.r
                for v, (j, fc) in enumerate(splits):
                    assert lambda_contains(j, fc)
                    for s in range(j):
                        assert fc[s] == n[tb.face_curves[v][s]]
                        total_t[tb.face_curves[v][s]] += fc[j + s]
                assert tuple(total_t) == coord[datum.r :]

    def test_rejects_nonmember(self):
        with pytest.raises(ValueError):
            face_split(d04, (1, 0))


class TestPhi:
    def test_sphere_four_value(self):
        val = phi_value(d04, (2, 2))
        assert glued_verdict(d04, (2, 2), val) is None
        torus = surface_torus(d04)
        ring = torus.ring
        v12 = ring.var("v1") * ring.var("v2")
        v34 = ring.var("v3") * ring.var("v4")
        want = (
            torus.monomial((2, 2))
            + torus.monomial((2, 1)).scale(v12 + v34)
            + torus.monomial((2, 0)).scale(v12 * v34)
        )
        assert val == want

    def test_returned_value_is_read_only(self):
        # (2, 2, 1, 1) and (2, 2, -3, 2) translate the core (2, 2, 0, 0),
        # whose coefficient objects all three values hold; at the core
        # phi_value returns the kept element itself
        coords = [(2, 2, 1, 1), (2, 2, -3, 2), (2, 2, 0, 0)]
        before = [phi_value(d05, c) for c in coords]
        assert phi_value(d05, (2, 2, 0, 0)) is d05._cores[(2, 2, 0, 0)]
        for v in [phi_value(d05, c) for c in coords]:
            k = next(iter(v.terms))
            with pytest.raises(AttributeError):
                v.terms.clear()
            with pytest.raises(TypeError):
                v.terms[k] = v.torus.ring.one()
            c = v.terms[k]
            with pytest.raises(TypeError):
                c[next(iter(c))] = 5
            with pytest.raises(AttributeError):
                v.terms = {}
            with pytest.raises(AttributeError):
                v.torus = None
            with pytest.raises(AttributeError):
                c.ring = None
        assert [phi_value(d05, c) for c in coords] == before
        assert before == [unkept_glue(d05, c) for c in coords]

    def test_a_second_init_changes_nothing(self):
        # a value is built whole when it is made, so calling __init__ again
        # on a kept core cannot empty it for the next caller
        datum = standard_datum(0, 4)
        value = phi_value(datum, (2, 0))
        before = dict(value.terms)
        assert before and datum._cores[(2, 0)] is value
        value.__init__(surface_torus(datum), {})
        again = phi_value(datum, (2, 0))
        assert again is value and dict(again.terms) == before and again.torus is surface_torus(datum)

    def test_loop_value(self):
        val = phi_value(d04, (0, 1))
        torus = surface_torus(d04)
        assert glued_verdict(d04, (0, 1), val) is None
        assert val == torus.monomial((0, 1)) + torus.monomial((0, -1))

    def test_lead_box_small(self):
        for datum in (d05, d12):
            for coord in box(datum, 3, 2):
                assert glued_verdict(datum, coord) is None

    def test_lead_box_spliced_genus_two(self):
        # five faces, four curves: the necklace core with one punctured
        # face spliced in
        datum = standard_datum(2, 1)
        count = 0
        for coord in box(datum, 2, 1):
            assert glued_verdict(datum, coord) is None
            count += 1
        assert count > 500

    @pytest.mark.parametrize("datum, coords", [
        # every length positive: the core has no twists
        (d20, [(2, 2, 2, 1, -1, 3), (1, 1, 2, 0, 0, 0), (2, 4, 2, -3, 2, 1)]),
        (d05, [(2, 2, 1, 1), (2, 2, -3, 2), (4, 2, 0, 0)]),
        # every length 0: the coordinate is its own core
        (d20, [(0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 1), (0, 0, 0, 2, 0, 1)]),
        (d12, [(0, 0, 0, 0), (0, 0, 3, 1)]),
        # mixed, with and without a twist at a met curve
        (d20, [(2, 0, 2, 0, 1, 1), (2, 0, 2, -2, 1, 0), (0, 2, 2, 1, 3, -1)]),
        (d05, [(2, 0, 1, 0), (2, 0, -2, 1), (0, 2, 2, -1)]),
        (d12, [(2, 0, -1, 1), (0, 2, 2, 1)]),
    ])
    def test_length_patterns_match_the_secondary_split(self, datum, coords):
        for coord in coords:
            want = surface._glue(datum, coord, True)
            assert phi_value(datum, coord) == want, coord
            assert phi_value(datum, coord) == want, coord
            assert phi_value(datum, list(coord)) == want, coord

    def test_twist_move_invariance(self):
        rng = random.Random(4)
        for datum in (d04, d05, d12, d20):
            for _ in range(40):
                coord = sample_member(rng, datum, nmax=3, tmax=3)
                assert phi_value(datum, coord) == surface._glue(datum, coord, True)

    def test_exponents_stay_in_span(self):
        # end-to-end monomial subalgebra check: all exponents of a glued
        # trace satisfy the length parity conditions of the span
        tb = d20._tables
        def in_span(k):
            n = k[: d20.r]
            return all(sum(n[c] for c in curves) % 2 == 0 for curves in tb.face_curves)
        rng = random.Random(5)
        for _ in range(60):
            coord = sample_member(rng, d20, nmax=3, tmax=3)
            assert all(in_span(k) for k in phi_value(d20, coord).terms)

    def test_lead_coefficient_is_one(self):
        rng = random.Random(6)
        for datum in (d05, d20):
            torus = surface_torus(datum)
            for _ in range(40):
                coord = sample_member(rng, datum, nmax=3, tmax=3)
                leads = lead_term(phi_value(datum, coord), lambda k: d_embed(datum, k))
                assert len(leads) == 1
                assert leads[0][1] == torus.ring.one()


def unkept_glue(datum, coord):
    """The glued trace of ``coord`` at the same twist placement as
    ``phi_value``, computed from its faces with nothing kept."""
    return surface._glue(datum, coord, False)


class TestKeptCores:
    """phi_value keeps one glued trace per core on the datum and translates
    it by the twists at the curves the coordinate meets; the reference is
    the same gluing with nothing kept."""

    @pytest.mark.parametrize("gm", [(0, 4), (0, 5), (1, 2), (2, 0)])
    def test_box_matches_the_unkept_glue(self, gm):
        # every member of the box, so every core is met cold, then warm
        # with each of its translations in the box
        datum = standard_datum(*gm)
        coords = list(box(datum, 3, 3))
        for c in coords:
            assert phi_value(datum, c) == unkept_glue(datum, c), c
        assert len(datum._cores) < len(coords)

    @pytest.mark.parametrize("gm", [(0, 7), (1, 4)])
    def test_punctured_sample_matches_the_unkept_glue(self, gm):
        datum = standard_datum(*gm)
        rng = random.Random(sum(gm))
        hits = 0
        r = datum.r
        for _ in range(60):
            coord = sample_member(rng, datum, nmax=2, tmax=2)
            # three more coordinates with its core: the twists at the
            # curves of positive length redrawn
            n, t = coord[:r], coord[r:]
            twins = [n + tuple(rng.randint(-2, 2) if x else y for x, y in zip(n, t)) for _ in range(3)]
            for c in [coord, *twins]:
                kept = len(datum._cores)
                assert phi_value(datum, c) == unkept_glue(datum, c), c
                hits += len(datum._cores) == kept
        # so most calls translate a kept core
        assert hits >= 3 * 60

    def test_a_warm_core_is_not_tested_again(self, monkeypatch):
        # a kept core was a member when it was glued, so a warm call tests
        # nothing; a cold one is tested once, as face_split splits its core
        datum = standard_datum(0, 5)
        coords = [(2, 2, 1, 1), (2, 2, -3, 5), (2, 2, 0, 0)]
        want = [unkept_glue(datum, c) for c in coords]
        phi_value(datum, coords[0])
        calls = []
        real = surface.lambda_membership

        def counting(d, c):
            calls.append(tuple(c))
            return real(d, c)

        monkeypatch.setattr(surface, "lambda_membership", counting)
        assert [phi_value(datum, c) for c in coords] == want
        assert calls == []
        phi_value(datum, (2, 0, 1, 0))
        assert calls == [(2, 0, 0, 0)]

    @pytest.mark.parametrize("gm, member, bad, why", [
        ((0, 4), (0, 0), (0, -1), "twist -1 at curve 0 below bound 0/2"),
        ((0, 5), (2, 0, 5, -1), (2, 0, 5, -2), "twist -2 at curve 1 below bound -2/2"),
        ((1, 2), (0, 2, 2, 5), (0, 2, 1, 5), "twist 1 at curve 0 below bound 4/2"),
    ], ids=["0,4", "0,5", "1,2"])
    def test_a_non_member_raises_beside_kept_cores(self, gm, member, bad, why):
        # the non-member has the lengths, and the twists at the curves of
        # positive length, of a member whose core is kept; its own core
        # differs at a curve of length 0, is not kept and is tested
        datum = standard_datum(*gm)
        phi_value(datum, member)
        for _ in range(2):
            with pytest.raises(ValueError) as raised:
                phi_value(datum, bad)
            assert str(raised.value) == f"coordinate not in the monoid: {why}"
        assert len(datum._cores) == 1

    def test_non_members_keep_nothing(self):
        datum = standard_datum(0, 4)
        phi_value(datum, (0, 0))
        for bad in ((0, -1), (1, 0), (-2, 0)):
            with pytest.raises(ValueError):
                phi_value(datum, bad)
        assert list(datum._cores) == [(0, 0)]

    def test_bounded_oldest_first(self, monkeypatch):
        # the bound holds for the coefficient store as well: an empty one
        # here, so the process's store is not thinned
        monkeypatch.setattr(ring, "KEPT_MAX", 3)
        monkeypatch.setattr(ring, "_shared", {})
        datum = standard_datum(0, 4)
        coords = [(2 * k, 0) for k in range(6)]
        for c in coords:
            assert phi_value(datum, c) == unkept_glue(datum, c)
            assert len(datum._cores) <= 3
        assert list(datum._cores) == coords[-3:]
        # an evicted core is glued again, to the same value
        assert phi_value(datum, (0, 0)) == unkept_glue(datum, (0, 0))

    def test_dropped_datum_goes_without_a_collection(self):
        # the kept dicts hold nothing of the datum, so no cycle keeps it
        gc.disable()
        try:
            datum = standard_datum(0, 5)
            phi_value(datum, (2, 2, 1, 1))
            phi_value(datum, (2, 2, 0, 1))
            ref = weakref.ref(datum)
            del datum
            assert ref() is None
        finally:
            gc.enable()


def box_pairs(datum, pairs, seed=0):
    """``pairs`` pairs of the box at lengths and twists up to 3, drawn as
    the top-term suite draws them."""
    rng = random.Random(seed)
    table = checks._global_table(datum, 3)
    return [(checks._sample_global(rng, datum, table), checks._sample_global(rng, datum, table))
            for _ in range(pairs)]


class TestGluedProduct:
    """glued_product keeps one product per pair of cores on the datum and
    translates it by the twists at the curves of positive length, times
    a power of q; the reference is the product of the two glued traces."""

    @pytest.mark.parametrize("make", [
        lambda: standard_datum(0, 4), lambda: standard_datum(0, 5), lambda: standard_datum(1, 2),
        lambda: standard_datum(2, 0), lambda: standard_datum(0, 6), lambda: standard_datum(1, 3),
        alternate_datum,
    ], ids=["0,4", "0,5", "1,2", "2,0", "0,6", "1,3", "alternate"])
    def test_box_draws_match_the_product_of_the_glued_traces(self, make):
        datum = make()
        pairs = box_pairs(datum, 300)
        for k, l in pairs:
            assert glued_product(datum, k, l) == elem_mul(phi_value(datum, k), phi_value(datum, l)), (k, l)
        # so some pairs read a kept product
        assert len(datum._core_products) < len(pairs)

    def test_twists_at_positive_lengths_translate_and_shift(self):
        # one pair of cores, its twists at the curves of positive length
        # redrawn: each product reads the one kept product
        datum = standard_datum(0, 5)
        rng = random.Random(5)
        for _ in range(40):
            k = (2, 2) + tuple(rng.randint(-3, 3) for _ in range(2))
            l = (2, 0, rng.randint(-3, 3), 1)
            assert glued_product(datum, k, l) == elem_mul(phi_value(datum, k), phi_value(datum, l)), (k, l)
        assert list(datum._core_products) == [((2, 2, 0, 0), (2, 0, 0, 1))]

    def test_cores_return_the_kept_product(self):
        datum = standard_datum(0, 4)
        value = glued_product(datum, (2, 0), (0, 1))
        assert glued_product(datum, (2, 0), (0, 1)) is value is datum._core_products[(2, 0), (0, 1)]
        # its coefficients are the store's
        assert all(ring.shared(c) is c for c in value.terms.values())
        # and it cannot be changed for the next caller
        before = dict(value.terms)
        value.__init__(value.torus, {})
        with pytest.raises(TypeError):
            value.terms[(0, 0)] = value.torus.ring.one()
        assert dict(glued_product(datum, (2, 0), (0, 1)).terms) == before

    @pytest.mark.parametrize("gm, bad", [
        ((0, 5), (1, 2, 0, 0)),   # odd boundary sum
        ((0, 4), (0, -1)),        # twist below its floor
        ((1, 2), (0, 2, -1, 5)),  # twist below its floor, at a curve of length 0 beside a positive one
        ((0, 5), (-2, 2, 0, 0)),  # negative length
    ])
    def test_non_members_raise_and_keep_nothing(self, gm, bad):
        datum = standard_datum(*gm)
        member = (0,) * (2 * datum.r)
        glued_product(datum, member, member)
        for k, l in ((bad, member), (member, bad), (bad, bad)):
            with pytest.raises(ValueError, match="not in the monoid"):
                glued_product(datum, k, l)
        assert list(datum._core_products) == [(member, member)]

    def test_bounded_oldest_first(self, monkeypatch):
        # an empty coefficient store, so the process's store is not thinned
        monkeypatch.setattr(ring, "KEPT_MAX", 3)
        monkeypatch.setattr(ring, "_shared", {})
        datum = standard_datum(0, 4)
        pairs = [((2 * a, 0), (0, b)) for a in range(3) for b in range(2)]
        for k, l in pairs:
            assert glued_product(datum, k, l) == elem_mul(phi_value(datum, k), phi_value(datum, l))
            assert len(datum._core_products) <= 3
        assert list(datum._core_products) == pairs[-3:]
        # an evicted product is multiplied again, to the same value
        k, l = pairs[0]
        assert glued_product(datum, k, l) == elem_mul(unkept_glue(datum, k), unkept_glue(datum, l))
        assert list(datum._core_products) == pairs[-2:] + [pairs[0]]

    def test_dropped_datum_goes_without_a_collection(self):
        # the kept products hold their torus, not the datum
        gc.disable()
        try:
            datum = standard_datum(0, 5)
            glued_product(datum, (2, 2, 1, 1), (2, 0, 0, 1))
            glued_product(datum, (2, 2, 0, 1), (0, 2, 1, 0))
            assert len(datum._core_products) == 2
            ref = weakref.ref(datum)
            del datum
            assert ref() is None
        finally:
            gc.enable()


def oracle_glue(datum, coord):
    """An independent glued trace: lift each face's reference trace
    (``utr_coord_straight``) into the tensor-product torus of the faces,
    multiply the lifts there, then project each monomial onto the surface
    torus by adding the u-exponents of the two sides of every curve."""
    r = datum.r
    torus = surface_torus(datum)
    splits = face_split(datum, coord)
    offsets = list(itertools.accumulate((2 * j for j, _ in splits), initial=0))
    rows = [[0] * offsets[-1] for _ in range(offsets[-1])]
    for (j, _), off in zip(splits, offsets):
        for a, row in enumerate(trace_torus(j).torus.matrix.rows):
            rows[off + a][off : off + 2 * j] = row
    tensor = QuantumTorus(AntisymMatrix(tuple(map(tuple, rows))), torus.ring)
    # the surface's puncture symbols follow the sorted leg ids, and a
    # face's i-th symbol is the puncture of its i-th leg
    legs = sorted(datum.graph.legs)
    curves = [[datum.graph.he_curve[h] for h in datum.slots[v][:j]] for v, (j, _) in enumerate(splits)]
    product = tensor.one()
    for v, ((j, face_coord), off) in enumerate(zip(splits, offsets)):
        positions = [legs.index(h) for h in datum.slots[v][j:]]
        lifted = tensor.zero()
        for k, c in utr_coord_straight(trace_torus(j), face_coord).terms.items():
            coeff = tensor.ring.zero()
            for key, a in c.items():
                exps = [0] * len(legs)
                for pos, e in zip(positions, key[:-1]):
                    exps[pos] += e
                coeff = coeff + tensor.ring.monomial(tuple(exps), key[-1], a)
            exponent = [0] * offsets[-1]
            exponent[off : off + 2 * j] = k
            lifted = lifted + tensor.monomial(exponent, coeff)
        product = elem_mul(product, lifted)
    out = torus.zero()
    for k, c in product.terms.items():
        lengths, twists = [None] * r, [0] * r
        for v, ((j, _), off) in enumerate(zip(splits, offsets)):
            for s, curve in enumerate(curves[v]):
                assert lengths[curve] in (None, k[off + s])
                lengths[curve] = k[off + s]
                twists[curve] += k[off + j + s]
        out = out + torus.monomial(tuple(lengths) + tuple(twists), c)
    return out


class TestGlueOracle:
    @pytest.mark.parametrize("gm", [(0, 4), (0, 5), (1, 2), (2, 0)])
    def test_matches_phi_value_on_the_box(self, gm):
        datum = standard_datum(*gm)
        for coord in box(datum, 3, 3):
            assert dict(phi_value(datum, coord).terms) == dict(oracle_glue(datum, coord).terms), coord


class TestGradedMul:
    """The product in the associated graded algebra: the top term of a
    product of glued traces is at k + l with coefficient q to the half
    pairing."""

    def test_examples(self):
        torus = surface_torus(d04)
        for k, l, p in (((2, 0), (0, 1), -4), ((2, 2), (0, 0), 0), ((2, 1), (2, 1), 0)):
            assert torus.matrix.pairing(k, l) == p
            prod = elem_mul(phi_value(d04, k), phi_value(d04, l))
            leads = lead_term(prod, lambda e: d_embed(d04, e))
            assert leads == [(tuple(a + b for a, b in zip(k, l)), torus.ring.q_half(p))]

    def test_rejects_nonmembers(self):
        with pytest.raises(ValueError):
            phi_value(d04, (1, 0))


LEAD_DATA = {gm: standard_datum(*gm) for gm in ((0, 4), (0, 5), (1, 2), (2, 0))}
LEAD_BOXES = {gm: list(box(datum, 3, 3)) for gm, datum in LEAD_DATA.items()}


def d_embed_violation(datum, coord, value):
    """:func:`glued_verdict` by its definition: every term has the lengths
    of ``coord``, and the maximal class under ``d_embed`` is ``coord``
    alone."""
    n = tuple(coord[: datum.r])
    for k in value.terms:
        if k[: datum.r] != n:
            return f"grading: monomial {k} has lengths {k[: datum.r]}, expected {n}"
    leads = [k for k, _ in lead_term(value, lambda k: d_embed(datum, k))]
    return None if leads == [tuple(coord)] else f"lead: maximal class {leads}, expected unique {coord}"


@st.composite
def box_pair(draw, same_lengths=False):
    """A reference surface and two points of its box at lengths and
    twists up to 3; with ``same_lengths``, the second point has the
    lengths of the first."""
    gm = draw(st.sampled_from(sorted(LEAD_DATA)))
    points = LEAD_BOXES[gm]
    k = draw(st.sampled_from(points))
    r = LEAD_DATA[gm].r
    l = draw(st.sampled_from([c for c in points if c[:r] == k[:r]] if same_lengths else points))
    return LEAD_DATA[gm], k, l


class TestGluedLead:
    """The lead verdict on a glued value orders by the twist part alone
    (``glued_key``), which on terms of fixed lengths is the order of
    ``d_embed``, and checks the lengths first."""

    @given(box_pair())
    @settings(max_examples=300, deadline=None)
    def test_matches_d_embed_on_values_and_products(self, case):
        # the product read at l has the wrong lengths unless k's are 0
        datum, k, l = case
        total = tuple(x + y for x, y in zip(k, l))
        prod = elem_mul(phi_value(datum, k), phi_value(datum, l))
        for coord, value in ((k, phi_value(datum, k)), (total, prod), (l, prod)):
            assert glued_verdict(datum, coord, value) == d_embed_violation(datum, coord, value)

    @given(box_pair(same_lengths=True))
    @settings(max_examples=300, deadline=None)
    def test_matches_d_embed_on_sums_at_fixed_lengths(self, case):
        # a sum of two glued traces of the same lengths has rivals for the
        # lead at the same twist sum, which a single trace may lack
        datum, k, l = case
        value = phi_value(datum, k) + phi_value(datum, l)
        if value.terms:
            for coord in (k, l):
                assert glued_verdict(datum, coord, value) == d_embed_violation(datum, coord, value)

    def test_ties_of_the_twist_sum(self):
        # on (0, 5) the terms at (2, 2, 1, -1) and (2, 2, 0, 0) share the
        # twist sum; the first twist decides, as in d_embed, and only
        # among the terms of the largest twist sum
        torus = surface_torus(d05)
        value = sum((torus.monomial((2, 2) + t) for t in ((0, 0), (1, -1), (-1, 0), (2, -3))), torus.zero())
        assert glued_verdict(d05, (2, 2, 1, -1), value) is None
        for t in ((0, 0), (-1, 0), (2, -3)):
            assert glued_verdict(d05, (2, 2) + t, value) == d_embed_violation(d05, (2, 2) + t, value)
            assert glued_verdict(d05, (2, 2) + t, value).startswith("lead:")
        # the first twist alone would put (2, 2, 1, -3) first
        value = torus.monomial((2, 2, 0, 5)) + torus.monomial((2, 2, 1, -3))
        assert glued_verdict(d05, (2, 2, 0, 5), value) is None
        assert glued_verdict(d05, (2, 2, 1, -3), value).startswith("lead:")

    @given(box_pair())
    @settings(max_examples=100, deadline=None)
    def test_varying_lengths_are_reported(self, case):
        datum, k, l = case
        r = datum.r
        value = phi_value(datum, k) + phi_value(datum, l)
        if k[:r] == l[:r]:
            return
        assert glued_verdict(datum, k, value).startswith("grading:")

    def test_varying_lengths_even_where_the_twist_key_agrees(self):
        # d_embed puts (2, 0) above (0, 5) on (0, 4); the twist part alone
        # would pick (0, 5), so the lengths must be checked, not assumed
        torus = surface_torus(d04)
        value = torus.monomial((2, 0)) + torus.monomial((0, 5))
        assert [k for k, _ in lead_term(value, lambda k: d_embed(d04, k))] == [(2, 0)]
        assert glued_verdict(d04, (2, 0), value).startswith("grading:")
        assert glued_verdict(d04, (2, 0), torus.zero()).startswith("lead:")
        # (2, 0) is the unique top term under the twist key; only the
        # lengths of the other term are wrong
        value = torus.monomial((2, 0)) + torus.monomial((0, -5))
        assert glued_verdict(d04, (2, 0), value).startswith("grading:")


class TestAlternateDatum:
    """A user-supplied datum for the twice-punctured torus: one
    three-holed face self-glued along the first curve plus a one-holed
    face, exercising the file-input path and self-gluing."""

    def build(self):
        graph = FatGraph(
            vertices=((1, 0, 2), (3, 4, 5)),
            edges=((0, 1), (2, 3)),
            legs=(4, 5),
        )
        return DTDatum(graph, ((0, 1, 2), (3, 4, 5)))

    def test_valid_and_recognized(self):
        datum = self.build()
        assert datum.graph.genus == 1 and datum.graph.punctures == 2
        assert datum.r == 2
        assert [datum.face_type(v) for v in range(2)] == [3, 1]

    def test_round_trip_through_json(self):
        datum = self.build()
        assert DTDatum.from_json(datum.to_json()) == datum

    def test_lead_theorem_on_box(self):
        datum = self.build()
        for coord in box(datum, 3, 2):
            assert glued_verdict(datum, coord) is None

    def test_self_glued_parity(self):
        datum = self.build()
        # curve 0 meets the three-holed face twice: its length enters the
        # parity sum twice, so only the second curve's parity constrains
        assert lambda_global(datum, (1, 2, 0, 0))
        assert not lambda_global(datum, (1, 1, 0, 0))


class TestGluingIdentity:
    """Gluing takes products to products: the product of two glued traces
    is the gluing of the face-by-face products of their face traces.  It
    holds only when the surface form restricts to the sum of the face
    forms, so it pins the sign of the twist-length block of both."""

    @pytest.mark.parametrize(
        "make",
        [lambda: d04, lambda: d05, lambda: d12, lambda: d20, lambda: TestAlternateDatum().build()],
        ids=["0_4", "0_5", "1_2", "2_0", "self_glued"],
    )
    def test_glued_product_is_the_glued_face_products(self, make):
        datum = make()
        rng = random.Random(0)
        table = checks._global_table(datum, 2)
        for _ in range(50):
            k, l = (checks._sample_global(rng, datum, table) for _ in range(2))
            faces = [
                elem_mul(utr_coord(trace_torus(j), a), utr_coord(trace_torus(j), b))
                for (j, a), (_, b) in zip(face_split(datum, k), face_split(datum, l))
            ]
            n = tuple(x + y for x, y in zip(k[: datum.r], l[: datum.r]))
            assert elem_mul(phi_value(datum, k), phi_value(datum, l)) == project_faces(datum, n, faces), (k, l)
