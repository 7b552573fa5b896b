import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintor.pants import ComponentSpec, cross, decompose, lambda_contains, loop, return_arc, twist_apply
from skeintor.qtorus import (
    AntisymMatrix,
    QuantumTorus,
    TorusElement,
    elem_mul,
    lead_term,
    reflection_normalize,
)
from skeintor.qtrace import (
    _component_power,
    _component_product,
    _core_value,
    _curve_value,
    TWIST_KEY,
    check_thmbtr,
    lead_violation,
    pants_degree,
    trace_torus,
    twist_violations,
    utr_coord,
    utr_coord_straight,
    weyl_u_mul,
)
from skeintor import qtrace, ring
from skeintor.checks import _pants_table
from skeintor.ring import GroundElem, GroundRing
from skeintor.surface import lambda_global, phi_value, standard_datum
from test_ring import mutations


t3 = trace_torus(3)
t2 = trace_torus(2)
t1 = trace_torus(1)


def sample_member(rng, j, nmax=6, tmax=6):
    while True:
        n = tuple(rng.randint(0, nmax) for _ in range(j))
        if sum(n) % 2:
            continue
        t = tuple(rng.randint(-tmax, tmax) for _ in range(j))
        if lambda_contains(j, n + t):
            return n + t


class TestCommutation:
    def test_matrix_entries(self):
        q = t3.torus.matrix
        # x_{i+1} x_i = q x_i x_{i+1} cyclically
        assert q.rows[1][0] == 1 and q.rows[2][1] == 1 and q.rows[0][2] == 1
        # u_i x_i = q^2 x_i u_i, u's central among themselves
        for i in range(3):
            assert q.rows[3 + i][i] == 2
            for k in range(3):
                if k != i:
                    assert q.rows[3 + i][k] == 0
                assert q.rows[3 + i][3 + k] == 0
        q2 = t2.torus.matrix
        assert q2.rows[1][0] == 1 and q2.rows[2][0] == 2 and q2.rows[3][1] == 2
        assert t1.torus.matrix.rows == ((0, -2), (2, 0))


class TestCatalog:
    def test_three_holed(self):
        assert _curve_value(t3, loop(1)) == t3.torus.monomial((0, 0, 0, 1, 0, 0)) + t3.torus.monomial(
            (0, 0, 0, -1, 0, 0)
        )
        assert _curve_value(t3, cross(2, 3)) == t3.torus.monomial((0, 1, 1, 0, 0, 0))
        assert _curve_value(t3, cross(1, 2, s=2, t=-1)) == t3.torus.monomial((1, 1, 0, 2, -1, 0))
        for m in (-2, 0, 3):
            got = _curve_value(t3, return_arc(1, m))
            want = t3.torus.monomial((2, 0, 0, m, 1, 0)) + t3.torus.monomial((2, 0, 0, m + 1, 0, -1))
            assert got == want

    def test_two_holed(self):
        b3 = t2.torus.ring.var("b3")
        b3inv = t2.torus.ring.var("b3", -1)
        for m in (-1, 0, 2):
            got = _curve_value(t2, return_arc(1, m))
            want = t2.torus.monomial((2, 0, m, 1)) + t2.torus.monomial((2, 0, m + 1, 0)).scale(b3inv)
            assert got == want
            got = _curve_value(t2, return_arc(2, m))
            want = t2.torus.monomial((0, 2, -1, m + 1)) + t2.torus.monomial((0, 2, 0, m)).scale(b3)
            assert got == want

    def test_one_holed(self):
        b = t1.torus.ring.var("b2") * t1.torus.ring.var("b3")
        assert _curve_value(t1, loop(1)) == t1.torus.monomial((0, 1)) + t1.torus.monomial((0, -1))
        for m in (-1, 0, 4):
            got = _curve_value(t1, return_arc(1, m))
            assert got == t1.torus.monomial((2, m + 1)) + t1.torus.monomial((2, m)).scale(b)

    def test_values_reflection_invariant(self):
        for tt, comp in [
            (t3, return_arc(2, 1)),
            (t2, return_arc(2)),
            (t2, cross(1, 2, s=3)),
            (t1, return_arc(1, -2)),
        ]:
            v = _curve_value(tt, comp)
            assert v.reflect() == v

    def test_invalid(self):
        with pytest.raises(ValueError):
            _curve_value(t1, cross(1, 2))
        with pytest.raises(ValueError):
            _curve_value(t2, loop(3))


def iterated_product(tt, comps):
    """The component product one factor at a time: each component value
    is multiplied in once per unit of its multiplicity.  The reference
    the closed-form powers are compared against."""
    out = tt.torus.one()
    for c in comps:
        value = _curve_value(tt, c)
        for _ in range(c.multiplicity):
            out = elem_mul(out, value)
    return out


def as_terms(e):
    return {k: dict(c) for k, c in e.terms.items()}


@st.composite
def twisted_components(draw):
    """A pants type and one to three twisted standard curves on it, each
    with a multiplicity."""
    j = draw(st.sampled_from((1, 2, 3)))
    boundary, twist, mult = st.integers(1, j), st.integers(-6, 6), st.integers(1, 10)
    kinds = ("loop", "return", "cross") if j > 1 else ("loop", "return")
    comps = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "loop":
            comps.append(ComponentSpec("loop", (draw(boundary),), (), draw(mult)))
        elif kind == "return":
            comps.append(ComponentSpec("return", (draw(boundary),), (draw(twist),), draw(mult)))
        else:
            ends = draw(st.lists(boundary, min_size=2, max_size=2, unique=True))
            comps.append(ComponentSpec("cross", tuple(ends), (draw(twist), draw(twist)), draw(mult)))
    return trace_torus(j), tuple(comps)


@st.composite
def members(draw):
    """A pants type and a member of its monoid with lengths and twists of
    size at most 16."""
    j = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.tuples(*[st.integers(0, 16)] * j).filter(lambda n: sum(n) % 2 == 0))
    t = draw(st.tuples(*[st.integers(-16, 16)] * j).filter(lambda t: lambda_contains(j, n + t)))
    return j, n + t


@st.composite
def binomials(draw):
    """alpha x^a + beta x^b in a random rank-3 torus, with coefficients in
    a puncture symbol and q^(1/2), and a power."""
    ring = GroundRing(("v",))
    entries = draw(st.tuples(*[st.integers(-3, 3)] * 3))
    rows = [[0] * 3 for _ in range(3)]
    for (i, k), e in zip(((0, 1), (0, 2), (1, 2)), entries):
        rows[i][k], rows[k][i] = e, -e
    torus = QuantumTorus(AntisymMatrix(tuple(map(tuple, rows))), ring)
    exps = st.tuples(*[st.integers(-3, 3)] * 3)
    a, b = draw(st.lists(exps, min_size=2, max_size=2, unique=True))
    coeff = st.builds(
        lambda k, h, c: ring.monomial((k,), h, c), st.integers(-2, 2), st.integers(-3, 3), st.integers(1, 3)
    )
    alpha, beta = draw(coeff), draw(coeff) + draw(coeff)
    return torus.monomial(a, alpha) + torus.monomial(b, beta), draw(st.integers(1, 9))


class TestComponentPower:
    """The closed-form powers against the iterated product, term for term."""

    @given(twisted_components())
    @settings(max_examples=300, deadline=None)
    def test_twisted_components(self, case):
        tt, comps = case
        assert as_terms(_component_product(tt.j, comps)) == as_terms(iterated_product(tt, comps))

    @given(members())
    @settings(max_examples=300, deadline=None)
    def test_canonical_decompositions(self, case):
        j, coord = case
        tt, comps = trace_torus(j), decompose(j, coord).components
        assert as_terms(_component_product(tt.j, comps)) == as_terms(iterated_product(tt, comps))

    @given(binomials())
    @settings(max_examples=300, deadline=None)
    def test_binomials_with_symbolic_coefficients(self, case):
        value, m = case
        assert as_terms(_component_power(value, m)) == as_terms(reduce(elem_mul, [value] * m))

    def test_monomials_and_the_empty_product(self):
        value = t2.torus.monomial((1, 1, 2, -1)).scale(t2.torus.ring.var("b3", 2))
        assert _component_power(value, 5) == reduce(elem_mul, [value] * 5)
        assert _component_product(3, ()) == t3.torus.one()


def straight_reference(tt, coord):
    """The reference path with nothing cached: the twist monomial times
    the iterated component product, renormalized."""
    dec = decompose(tt.j, coord)
    twist = tt.torus.monomial((0,) * tt.j + dec.twists)
    return reflection_normalize(elem_mul(twist, iterated_product(tt, dec.components)))


@pytest.fixture
def power_calls(monkeypatch):
    """The multiplicities of the component powers computed, with the
    product cache cleared first."""
    calls = []
    real = qtrace._component_power

    def counting(value, m):
        calls.append(m)
        return real(value, m)

    _component_product.cache_clear()
    monkeypatch.setattr(qtrace, "_component_power", counting)
    return calls


class TestSharedProduct:
    """The reference path multiplies out each component tuple once per
    process, reuses it only for an equal tuple, and reads no core value."""

    def test_twisted_side_reuses_the_product(self, power_calls):
        for j, coord in ((3, (2, 4, 2, 1, -3, 2)), (2, (3, 1, 0, 2)), (1, (4, -1))):
            tt = trace_torus(j)
            value = utr_coord_straight(tt, coord)
            for i in range(1, j + 1):
                if coord[i - 1]:
                    power_calls.clear()
                    twisted = utr_coord_straight(tt, twist_apply(j, i, coord))
                    assert power_calls == []
                    assert twisted == weyl_u_mul(tt, i, value, coord[i - 1])
        # a new decomposition is computed
        utr_coord_straight(t3, (2, 2, 0, 0, 0, 3))
        assert power_calls

    def test_repeated_core_computes_its_product_once(self, power_calls):
        a, b = (2, 4, 2, 1, -3, 2), (2, 2, 0, 0, 0, 3)
        assert utr_coord_straight(t3, a) == straight_reference(t3, a)
        first = len(power_calls)
        # another core in between, then a and twists of a at boundaries
        # it meets: the same components, not asked for back to back
        assert utr_coord_straight(t3, b) == straight_reference(t3, b)
        power_calls.clear()
        for coord in (a, twist_apply(3, 1, a), twist_apply(3, 2, twist_apply(3, 3, a)), a):
            assert utr_coord_straight(t3, coord) == straight_reference(t3, coord)
        assert power_calls == []
        assert first and _component_product.cache_info().misses == 2

    def test_reads_no_core_value(self, power_calls, monkeypatch):
        def refuse(*args):
            raise AssertionError("the reference path read a core value or translated")

        monkeypatch.setattr(qtrace, "_core_value", refuse)
        monkeypatch.setattr(TorusElement, "translate", refuse)
        coords = [(3, (2, 4, 2, 1, -3, 2)), (3, (2, 2, 0, 0, 0, 3)), (2, (3, 1, 0, 2)),
                  (2, (2, 0, -1, 1)), (1, (4, -1)), (1, (0, 3))]
        cold = [utr_coord_straight(trace_torus(j), c) for j, c in coords]
        assert power_calls
        power_calls.clear()
        warm = [utr_coord_straight(trace_torus(j), c) for j, c in coords]
        assert power_calls == []
        monkeypatch.undo()
        assert cold == warm == [utr_coord(trace_torus(j), c) for j, c in coords]

    @pytest.mark.parametrize("j, coords", [
        (3, [(2, 0, 0, 0, 1, 0), (2, 0, 0, 0, 2, 0), (2, 0, 0, 0, 2, 3), (2, 0, 0, 0, 1, 0)]),
        (2, [(2, 0, 0, 1), (2, 0, 0, 2), (2, 0, 1, 3), (2, 0, -1, 1)]),
        (1, [(0, 1), (0, 3), (0, 2), (0, 0)]),
    ])
    def test_same_lengths_other_loops(self, j, coords):
        tt = trace_torus(j)
        for coord in coords:
            assert utr_coord_straight(tt, coord) == straight_reference(tt, coord)

    def test_bounded_like_the_core_cache(self):
        assert _component_product.cache_info().maxsize == _core_value.cache_info().maxsize == 65536


# every monoid point of the box-4 pants grid, as the trace-property suite
# lists it
BOX4 = [(j, c) for j in (1, 2, 3) for c in _pants_table(j, 4, 4).points()]


@pytest.fixture
def cold_traces(monkeypatch):
    """Empty trace caches over an empty coefficient store; returns the
    function that empties the caches, which runs again at teardown."""
    def clear():
        _core_value.cache_clear()
        _component_product.cache_clear()

    monkeypatch.setattr(ring, "_shared", {})
    clear()
    yield clear
    clear()


def _box_values():
    return [(utr_coord(trace_torus(j), c), utr_coord_straight(trace_torus(j), c)) for j, c in BOX4]


def _glued_box_values():
    """The glued traces of every member of the (0,5) and (1,2) boxes at
    lengths and |t| <= 3, each surface on a fresh datum, with the datums."""
    out = []
    for gm in ((0, 5), (1, 2)):
        datum = standard_datum(*gm)
        r = datum.r
        coords = [n + t for n in itertools.product(range(4), repeat=r)
                  for t in itertools.product(range(-3, 4), repeat=r) if lambda_global(datum, n + t)]
        out.append((datum, [phi_value(datum, c) for c in coords]))
    return out


class TestCoefficientStore:
    """The trace caches keep their coefficients through ring.shared."""

    def test_box_values_match_the_store_bypassed(self, cold_traces, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(qtrace, "shared", lambda c: c)
            bypassed = _box_values()
        assert not ring._shared
        cold_traces()
        stored = _box_values()
        assert ring._shared
        assert stored == bypassed
        for (j, _), values in zip(BOX4, stored):
            assert all(c.ring == trace_torus(j).torus.ring for v in values for c in v.terms.values())

    def test_equal_kept_coefficients_are_one_object(self, cold_traces):
        # the cores (utr_coord keeps their coefficients when it translates)
        # and the products, read back from the filled caches
        kept = [utr_coord(trace_torus(j), c) for j, c in BOX4]
        misses = _component_product.cache_info().misses
        kept += [_component_product(j, decompose(j, c).components) for j, c in BOX4]
        assert _component_product.cache_info().misses == misses
        objects: dict = {}
        for value in kept:
            for c in value.terms.values():
                objects.setdefault((c.ring, c), set()).add(id(c))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len(objects) < sum(len(v.terms) for v in kept)

    def test_glued_values_match_the_store_bypassed(self, cold_traces, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(qtrace, "shared", lambda c: c)
            bypassed = _glued_box_values()
        assert not ring._shared
        cold_traces()
        stored = _glued_box_values()
        assert ring._shared
        assert [values for _, values in stored] == [values for _, values in bypassed]
        for datum, values in stored:
            assert all(c.ring == datum._torus.ring for v in values for c in v.terms.values())

    def test_equal_glued_coefficients_are_one_object(self, cold_traces):
        # read back from the cores the datums keep
        cores = [core for datum, _ in _glued_box_values() for core in datum._cores.values()]
        objects: dict = {}
        for core in cores:
            for c in core.terms.values():
                objects.setdefault((c.ring, c), set()).add(id(c))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len(objects) < sum(len(core.terms) for core in cores)

    def test_stored_coefficient_stays_after_an_attempt(self, cold_traces):
        coord = (2, 4, 2, 1, -3, 2)
        value = utr_coord(t3, coord)
        k, c = next(iter(value.terms.items()))
        assert ring.shared(GroundElem(c.ring, dict(c))) is c
        before = dict(c)
        for attempt in mutations(c, next(iter(c))):
            with pytest.raises(TypeError):
                attempt()
        with pytest.raises(AttributeError):
            c.ring = t2.torus.ring
        assert c == before
        # recomputed, the value takes the stored coefficient as it was
        cold_traces()
        again = utr_coord(t3, coord)
        assert again.terms[k] is c
        assert again == value == utr_coord_straight(t3, coord)


class TestTraceTorusU:
    def test_matches_the_monomial(self):
        # u_i is generator j + i - 1; its coefficient the power of q.  A
        # kept u is compared with one built afresh, first and second call
        for j in (1, 2, 3):
            tt = trace_torus(j)
            for i, h in itertools.product(range(1, j + 1), range(-34, 35, 3)):
                exponent = [0] * (2 * j)
                exponent[j + i - 1] = 1
                want = tt.torus.monomial(exponent, tt.torus.ring.monomial((0,) * tt.torus.ring.nsym, h))
                for got in (tt.u(i, h), tt.u(i, h)):
                    assert got == want and list(got.terms) == list(want.terms)
                    assert got.torus is tt.torus
            assert tt.u(1) == tt.u(1, 0) == tt.u(1, half_steps=0)

    def test_kept_u_is_read_only(self):
        # every caller gets the same kept element; an attempt to change it
        # or its coefficient raises and leaves the next call unchanged
        u = t3.u(2, half_steps=-6)
        assert t3.u(2, half_steps=-6) is u
        (k, c), = u.terms.items()
        for attempt in (
            lambda: u.terms.clear(),
            lambda: u.terms.__setitem__(k, t3.torus.ring.one()),
            lambda: u.terms.__delitem__(k),
            lambda: setattr(u, "terms", {}),
            lambda: setattr(u, "torus", t2.torus),
            lambda: c.__setitem__(next(iter(c)), 5),
            lambda: c.update({(1,): 1}),
            lambda: c.clear(),
            lambda: setattr(c, "ring", t2.torus.ring),
        ):
            with pytest.raises((AttributeError, TypeError)):
                attempt()
        again = t3.u(2, half_steps=-6)
        assert again is u and again.torus is t3.torus
        assert dict(again.terms) == {(0, 0, 0, 0, 1, 0): t3.torus.ring.q_half(-6)}
        assert dict(again.terms[(0, 0, 0, 0, 1, 0)]) == {(-6,): 1}
        assert weyl_u_mul(t3, 2, t3.torus.one(), 3) == again


class TestUtrCoord:
    def test_examples(self):
        b = t1.torus.ring.var("b2") * t1.torus.ring.var("b3")
        assert utr_coord(t1, (2, 1)) == t1.torus.monomial((2, 1)) + t1.torus.monomial((2, 0)).scale(b)
        assert utr_coord(t3, (0, 0, 0, 1, 0, 0)) == t3.torus.monomial((0, 0, 0, 1, 0, 0)) + t3.torus.monomial(
            (0, 0, 0, -1, 0, 0)
        )

    def test_square_of_generator(self):
        sq = reflection_normalize(elem_mul(utr_coord(t1, (2, 1)), utr_coord(t1, (2, 1))))
        assert sq == utr_coord(t1, (4, 2))
        b = t1.torus.ring.var("b2") * t1.torus.ring.var("b3")
        q2 = t1.torus.ring.q_half(4) + t1.torus.ring.q_half(-4)
        want = (
            t1.torus.monomial((4, 2))
            + t1.torus.monomial((4, 1)).scale(q2 * b)
            + t1.torus.monomial((4, 0)).scale(b * b)
        )
        assert sq == want

    def test_not_member(self):
        with pytest.raises(ValueError):
            utr_coord(t1, (0, -1))
        with pytest.raises(ValueError):
            utr_coord(t3, (1, 0, 0, 0, 0, 0))

    def test_cached_path_matches_straight_path(self):
        rng = random.Random(7)
        for j in (1, 2, 3):
            tt = trace_torus(j)
            for _ in range(150):
                c = sample_member(rng, j)
                assert utr_coord(tt, c) == utr_coord_straight(tt, c)

    def test_returned_value_is_read_only(self):
        # the untwisted value is the cached core itself; a caller must not
        # be able to change what later calls return.  Shifted values, the
        # normalized reference value and a monomial product, whose
        # coefficients are built without the zero scan, are read-only too
        coord = (2, 0, 0, 0, 1, 0)
        v = utr_coord(t3, coord)
        before = {k: dict(c) for k, c in v.terms.items()}
        straight = utr_coord_straight(t3, (2, 4, 2, 1, -3, 2))
        elements = [v, v.shift_q(3), straight, weyl_u_mul(t3, 1, straight, 2)]
        coefficients = [e.terms[next(iter(e.terms))] for e in elements]
        coefficients.append(coefficients[0].shift_q(-1))
        for e in elements:
            k = next(iter(e.terms))
            with pytest.raises(AttributeError):
                e.terms.clear()
            with pytest.raises(TypeError):
                e.terms[k] = t3.torus.ring.one()
            with pytest.raises(TypeError):
                del e.terms[k]
            # rebinding or deleting an attribute is refused as well
            with pytest.raises(AttributeError):
                e.terms = {}
            with pytest.raises(AttributeError):
                del e.terms
        for c in coefficients:
            with pytest.raises(TypeError):
                c[next(iter(c))] = 5
            with pytest.raises(TypeError):
                c.clear()
            with pytest.raises(TypeError):
                c.update({})
            with pytest.raises(AttributeError):
                c.ring = t3.torus.ring
        after = utr_coord(t3, coord)
        assert {k: dict(c) for k, c in after.terms.items()} == before
        assert after == utr_coord_straight(t3, coord)

    def test_core_cache_is_bounded(self):
        # far above the misses of a check run or a benchmark episode
        assert _core_value.cache_info().maxsize == 65536

    def test_reflection_invariance(self):
        rng = random.Random(8)
        for j in (1, 2, 3):
            tt = trace_torus(j)
            for _ in range(150):
                v = utr_coord(tt, sample_member(rng, j))
                assert v.reflect() == v


def sum_degree(j, exponent):
    """``pants_degree`` by its definition, with ``sum`` over the split."""
    n, t = exponent[:j], exponent[j:]
    return (sum(n), sum(t), t[1] if j == 2 else 0)


class TestPantsDegree:
    @given(st.sampled_from([1, 2, 3]).flatmap(
        lambda j: st.tuples(st.just(j), st.tuples(*[st.integers(-20, 20)] * (2 * j)))))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sums(self, case):
        j, exponent = case
        assert pants_degree(j, exponent) == sum_degree(j, exponent)
        assert pants_degree(j, list(exponent)) == sum_degree(j, exponent)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_wrong_length_raises(self, j):
        for length in (0, 2 * j - 1, 2 * j + 1, 4 * j):
            with pytest.raises(ValueError, match="length"):
                pants_degree(j, (1,) * length)

    def test_orders_the_lead_check(self):
        # the lead verdict orders by pants_degree: a term with the same
        # lengths and a larger twist sum is found above the coordinate
        coord = (2, 2, 0, 0, 1, 0)
        value = utr_coord(t3, coord)
        assert pants_verdict(3, coord, value) is None
        assert pants_verdict(3, coord, value + t3.torus.monomial((2, 2, 0, 1, 1, 0))).startswith("lead:")


def pants_verdict(j, coord, value):
    """The lead verdict on a pants value, as the program takes it."""
    return lead_violation(coord, value, j, TWIST_KEY[j])


def pants_degree_violation(j, coord, value):
    """:func:`pants_verdict` by its definition: every term has the
    x-degrees of ``coord``, and the maximal class under ``pants_degree``
    is ``coord`` alone."""
    n = tuple(coord[:j])
    for k in value.terms:
        if k[:j] != n:
            return f"grading: monomial {k} has lengths {k[:j]}, expected {n}"
    leads = [k for k, _ in lead_term(value, lambda k: pants_degree(j, k))]
    return None if leads == [tuple(coord)] else f"lead: maximal class {leads}, expected unique {coord}"


@st.composite
def member_pairs(draw, same_lengths):
    """A pants type and two members of its monoid at lengths and twists
    up to 4; with ``same_lengths``, the second has the first's lengths."""
    j = draw(st.sampled_from((1, 2, 3)))
    lengths = st.tuples(*[st.integers(0, 4)] * j).filter(lambda n: sum(n) % 2 == 0)
    twists = st.tuples(*[st.integers(-4, 4)] * j)
    n = draw(lengths)
    a = n + draw(twists.filter(lambda t: lambda_contains(j, n + t)))
    m = n if same_lengths else draw(lengths)
    b = m + draw(twists.filter(lambda t: lambda_contains(j, m + t)))
    return j, a, b


class TestLeadKey:
    """The lead verdict on a pants value orders by the twist part of
    ``pants_degree`` (``TWIST_KEY``; j = 3: the twist sum; j = 2: the
    twist sum, then t_2; j = 1: t_1), which on terms of fixed x-degrees
    is the order of ``pants_degree``, and checks the x-degrees first."""

    @given(member_pairs(same_lengths=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_pants_degree_on_values_and_products(self, case):
        # the product read at b has the wrong x-degrees unless a's are 0
        j, a, b = case
        tt = trace_torus(j)
        va, vb = utr_coord(tt, a), utr_coord(tt, b)
        total = tuple(x + y for x, y in zip(a, b))
        for coord, value in ((a, va), (total, elem_mul(va, vb)), (b, elem_mul(vb, va))):
            assert pants_verdict(j, coord, value) == pants_degree_violation(j, coord, value)

    @given(member_pairs(same_lengths=True))
    @settings(max_examples=300, deadline=None)
    def test_matches_pants_degree_on_sums_at_fixed_lengths(self, case):
        j, a, b = case
        tt = trace_torus(j)
        value = utr_coord(tt, a) + utr_coord(tt, b)
        if value.terms:
            for coord in (a, b):
                assert pants_verdict(j, coord, value) == pants_degree_violation(j, coord, value)

    def test_ties_of_the_twist_sum(self):
        # j = 2: at twist sum 0, t_2 decides; the term of twist sum 1 is
        # above both
        value = t2.torus.monomial((1, 1, 1, -1)) + t2.torus.monomial((1, 1, -1, 1))
        assert pants_verdict(2, (1, 1, -1, 1), value) is None
        assert pants_verdict(2, (1, 1, 1, -1), value) == pants_degree_violation(2, (1, 1, 1, -1), value)
        higher = value + t2.torus.monomial((1, 1, 3, -2))
        assert pants_verdict(2, (1, 1, 3, -2), higher) is None
        assert pants_degree_violation(2, (1, 1, 3, -2), higher) is None
        # t_2 alone would put (1, 1, -5, 0) first
        lower = t2.torus.monomial((1, 1, 3, -2)) + t2.torus.monomial((1, 1, -5, 0))
        assert pants_verdict(2, (1, 1, 3, -2), lower) is None
        assert pants_verdict(2, (1, 1, -5, 0), lower).startswith("lead:")

    @given(member_pairs(same_lengths=False))
    @settings(max_examples=100, deadline=None)
    def test_varying_x_degrees_are_reported(self, case):
        j, a, b = case
        if a[:j] == b[:j]:
            return
        tt = trace_torus(j)
        value = utr_coord(tt, a) + utr_coord(tt, b)
        assert pants_verdict(j, a, value).startswith("grading:")

    def test_varying_x_degrees_even_where_the_twist_key_agrees(self):
        # pants_degree puts (2, 0, 0, 0, 0, 0) first; the twist sum alone
        # would pick (0, 0, 0, 0, 0, 5)
        value = t3.torus.monomial((2, 0, 0, 0, 0, 0)) + t3.torus.monomial((0, 0, 0, 0, 0, 5))
        assert pants_degree_violation(3, (2, 0, 0, 0, 0, 0), value).startswith("grading:")
        assert pants_verdict(3, (2, 0, 0, 0, 0, 0), value).startswith("grading:")
        assert pants_verdict(3, (2, 0, 0, 0, 0, 0), t3.torus.zero()).startswith("lead:")
        # the coordinate is the unique top term under the twist key, and
        # only the x-degrees of the other term are wrong
        value = t3.torus.monomial((2, 0, 0, 0, 0, 0)) + t3.torus.monomial((0, 0, 0, 0, 0, -5))
        assert pants_verdict(3, (2, 0, 0, 0, 0, 0), value).startswith("grading:")
        # x-degrees that agree but are not the coordinate's lengths
        value = t3.torus.monomial((0, 2, 0, 0, 0, 0)) + t3.torus.monomial((0, 2, 0, 0, 1, 0))
        assert pants_verdict(3, (2, 0, 0, 0, 1, 0), value).startswith("grading:")


class TestThmbtr:
    def test_lead_examples(self):
        # return arc at the first boundary of the three-holed pants
        value = utr_coord(t3, (2, 0, 0, 0, 1, 0))
        leads = lead_term(value, lambda k: pants_degree(3, k))
        assert leads == [((2, 0, 0, 0, 1, 0), t3.torus.ring.one())]
        # two-holed: degrees (2,0,1) vs (2,0,0)
        value = utr_coord(t2, (0, 2, -1, 1))
        assert pants_degree(2, (0, 2, -1, 1)) == (2, 0, 1)
        leads = lead_term(value, lambda k: pants_degree(2, k))
        assert leads[0][0] == (0, 2, -1, 1) and len(leads) == 1
        # one-holed: (2,1,0) vs (2,0,0)
        value = utr_coord(t1, (2, 1))
        leads = lead_term(value, lambda k: pants_degree(1, k))
        assert leads == [((2, 1), t1.torus.ring.one())]

    def test_reports_pass_on_examples(self):
        for tt, coord in [
            (t3, (2, 0, 0, 0, 1, 0)),
            (t2, (0, 2, -1, 1)),
            (t1, (2, 1)),
            (t3, (2, 1, 1, 0, 1, 0)),
            (t2, (3, 3, -2, 4)),
        ]:
            rep = check_thmbtr(tt, coord)
            assert rep.ok, rep.violations

    def test_twist_rule_via_general_product(self):
        rng = random.Random(9)
        for j in (1, 2, 3):
            tt = trace_torus(j)
            for _ in range(60):
                c = sample_member(rng, j, nmax=4, tmax=4)
                v = utr_coord_straight(tt, c)
                for i in range(1, j + 1):
                    if c[i - 1] == 0:
                        continue
                    lhs = utr_coord_straight(tt, twist_apply(j, i, c))
                    assert lhs == weyl_u_mul(tt, i, v, c[i - 1])

    def test_small_boxes(self):
        for j in (1, 2, 3):
            tt = trace_torus(j)
            for n in itertools.product(range(0, 4), repeat=j):
                if sum(n) % 2:
                    continue
                for t in itertools.product(range(-2, 3), repeat=j):
                    c = n + t
                    if lambda_contains(j, c):
                        rep = check_thmbtr(tt, c)
                        assert rep.ok, (j, c, rep.violations)

    def test_violations_are_detected(self):
        # negative controls for the shared checks behind check_thmbtr and
        # the trace-property suite
        coord = (2, 0, 0, 0, 1, 0)
        value = utr_coord(t3, coord)
        assert pants_verdict(3, coord, value) is None
        assert twist_violations(t3, coord, utr_coord_straight) == []
        off_grade = value + t3.torus.monomial((0, 2, 0, 0, 0, 0))
        assert pants_verdict(3, coord, off_grade).startswith("grading:")
        higher = value + t3.torus.monomial((2, 0, 0, 0, 2, 0))
        assert pants_verdict(3, coord, higher).startswith("lead:")
        tie = value + t3.torus.monomial((2, 0, 0, 1, 0, 0))
        assert pants_verdict(3, coord, tie).startswith("lead:")
        untwisted = lambda tt, c: utr_coord(tt, c[:3] + (0, 1, 0))
        assert twist_violations(t3, coord, untwisted) == ["twist: boundary 1 of (2, 0, 0, 0, 1, 0)"]
