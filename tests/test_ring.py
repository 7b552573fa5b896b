from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintor import ring
from skeintor.ring import GroundElem, GroundRing, flat_accumulate, flat_mul, shared

# the half-step Laurent ring
R = GroundRing(())


def hl(terms):
    return GroundElem(R, {(e,): c for e, c in terms.items()})


half_laurents = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-9, max_value=9), max_size=5
).map(hl)


class TestHalfLaurent:
    """Laurent polynomials in q^{1/2}: the elements of GroundRing(())."""

    def test_reflect_examples(self):
        p = R.q_half(1) + R.q_half(-3)
        assert p.reflect() == R.q_half(-1) + R.q_half(3)
        assert R.one().reflect() == R.one()
        p = hl({4: 3, 2: -1})  # 3q^2 - q
        assert p.reflect() == hl({-4: 3, -2: -1})

    def test_reflect_is_involution_and_multiplicative(self):
        a = hl({1: 2, -3: 1})
        b = hl({0: 1, 2: -4})
        assert a.reflect().reflect() == a
        assert (a * b).reflect() == a.reflect() * b.reflect()
        assert (R.q_half(1) * a).reflect() == R.q_half(-1) * a.reflect()

    @given(half_laurents, half_laurents, half_laurents)
    @settings(max_examples=150, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * R.one() == a
        assert (a + R.zero()) == a


class TestGroundRing:
    def test_symbols_and_reflection(self):
        ring = GroundRing(("b2", "b3"))
        e = ring.var("b2") * ring.var("b3", -1) + ring.q_half(3)
        assert e.reflect().reflect() == e
        assert ring.one() * e == e
        # puncture symbols are fixed by the reflection
        v = ring.var("b2")
        assert v.reflect() == v

    def test_shift(self):
        ring = GroundRing(())
        e = ring.q_half(2)
        assert e.shift_q(-2) == ring.one()

    def test_zero_shift_is_the_element(self):
        # a zero shift hands back the one read-only object, so a kept
        # coefficient stays shared
        e = R2.var("a") + R2.q_half(3)
        assert e.shift_q(0) is e and not R2.zero().shift_q(0)
        with pytest.raises(TypeError):
            e.shift_q(0)[(0, 0, 0)] = 1
        with pytest.raises(AttributeError):
            e.shift_q(0).ring = R
        assert e.shift_q(1) is not e and e.shift_q(1).shift_q(-1) == e == R2.var("a") + R2.q_half(3)

    def test_a_coefficient_is_its_term_dict(self):
        # it equals, and hashes by, its terms; it is falsy exactly when zero
        e = R2.var("a") + R2.q_half(3)
        assert e == {(1, 0, 0): 1, (0, 0, 3): 1} and hash(e) == hash(frozenset(e.items()))
        assert not R2.zero() and R2.zero() == {} and R2.one() and R2.monomial((0, 0), 0, 0) == R2.zero()
        assert GroundElem(R2, {(0, 0, 1): 0, (1, 0, 0): 2}) == {(1, 0, 0): 2}


# two puncture symbols and q^{1/2}; small exponents so that products of
# random elements share keys and cancel
R2 = GroundRing(("a", "b"))
two_symbol = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1), st.integers(-2, 2)),
    st.integers(min_value=-3, max_value=3),
    max_size=6,
).map(lambda terms: GroundElem(R2, terms))


def mutations(c, key):
    """Every dict mutator of the coefficient ``c``, as calls that must raise TypeError."""
    return (lambda: c.__setitem__(key, 5), lambda: c.__delitem__(key), lambda: c.__ior__({key: 0}), c.clear,
            lambda: c.pop(key), c.popitem, lambda: c.setdefault(key, 0), lambda: c.update({key: 0}))


def brute_product(a, b):
    """The product of two coefficients, one Counter entry per term pair."""
    out = Counter()
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[tuple(x + y for x, y in zip(ka, kb))] += ca * cb
    return {k: c for k, c in out.items() if c}


class TestFlatProduct:
    @given(two_symbol, two_symbol)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, a, b):
        got = a * b
        assert dict(got) == brute_product(a, b)
        assert 0 not in got.values()
        assert {k: c for k, c in flat_mul(a, b).items() if c} == dict(got)

    def test_cancellation(self):
        x, y = R2.var("a"), R2.var("b") * R2.q_half(1)
        minus_y = R2.monomial((0, 1), 1, -1)
        # (x + y)(x - y): the two cross terms cancel and are not kept
        assert flat_mul(x + y, x + minus_y)[(1, 1, 1)] == 0
        got = (x + y) * (x + minus_y)
        assert dict(got) == {(2, 0, 0): 1, (0, 2, 2): -1}
        assert (x + y) * R2.zero() == R2.zero()

    def test_full_cancellation_is_zero(self):
        # a * b and a * (-b) accumulated into one entry cancel term by term
        a = R2.var("a") + R2.q_half(3)
        minus_one = R2.monomial((0, 0), 0, -1)
        b = R2.var("b", -1) + R2.q_half(-1) * minus_one
        right = [((0,), b.items()), ((0,), (b * minus_one).items())]
        out = flat_accumulate({}, [((1,), a.items())], right)
        assert set(out) == {(1,)} and set(out[(1,)].values()) == {0}
        assert not GroundElem(R2, out[(1,)])

    @given(two_symbol, two_symbol, two_symbol)
    @settings(max_examples=100, deadline=None)
    def test_accumulate_adds_products_by_exponent(self, a, b, c):
        out = flat_accumulate({}, [((0, 1), a.items()), ((1, 0), b.items())],
                              [((1, 0), c.items())])
        assert set(out) == {(1, 1), (2, 0)}
        assert GroundElem(R2, out[(1, 1)]) == a * c
        assert GroundElem(R2, out[(2, 0)]) == b * c


@pytest.fixture
def store(monkeypatch):
    """An empty coefficient store in place of the process's one."""
    empty = {}
    monkeypatch.setattr(ring, "_shared", empty)
    return empty


class TestSharedStore:
    def test_equal_terms_in_two_rings_stay_apart(self, store):
        # GroundElem equality reads only the terms, so the store must key
        # by the ring as well
        ra, rb = GroundRing(("a",)), GroundRing(("b",))
        xa, xb = ra.var("a"), rb.var("b")
        assert xa == xb and xa.ring != xb.ring
        assert shared(xa) is xa
        assert shared(xb) is xb and shared(xb).ring == rb
        assert shared(ra.var("a")) is xa
        assert shared(GroundElem(rb, dict(xa))) is xb
        assert len(store) == 2

    def test_equal_coefficients_are_one_object(self, store):
        a = R2.var("a") + R2.q_half(3)
        assert shared(a) is a
        for again in (R2.q_half(3) + R2.var("a"), GroundElem(R2, dict(a))):
            assert again is not a and shared(again) is a
        assert shared(R2.var("a")) is not a

    def test_stored_coefficient_is_read_only(self, store):
        a = shared(R2.var("b", -1) + R2.monomial((0, 0), -1, -1))
        before = dict(a)
        key = next(iter(a))
        for attempt in mutations(a, key):
            with pytest.raises(TypeError):
                attempt()
        for attempt in (lambda: setattr(a, "ring", R), lambda: delattr(a, "ring"), lambda: setattr(a, "terms", {})):
            with pytest.raises(AttributeError):
                attempt()
        later = shared(R2.var("b", -1) + R2.monomial((0, 0), -1, -1))
        assert later is a and dict(later) == before and later.ring is R2

    def test_evicts_the_oldest_at_the_bound(self, store, monkeypatch):
        # hl builds a new element each time (q_half hands out kept ones)
        monkeypatch.setattr(ring, "KEPT_MAX", 2)
        first = [hl({e: 1}) for e in range(3)]
        assert all(shared(c) is c for c in first)
        assert len(store) == 2
        # q^0 went first; q^1 and q^2 are still the stored ones
        again = [hl({e: 1}) for e in range(3)]
        assert shared(again[2]) is first[2] and shared(again[1]) is first[1]
        assert shared(again[0]) is again[0]
        assert len(store) == 2
        # storing q^0 again evicted q^1, the oldest left
        assert shared(hl({1: 1})) is not first[1]
        assert len(store) == 2


@pytest.fixture
def q_halves(monkeypatch):
    """An empty store of kept q-powers in place of the process's one."""
    empty = {}
    monkeypatch.setattr(ring, "_q_halves", empty)
    return empty


class TestKeptQPowers:
    """``GroundRing.q_half`` keeps one element per ring and exponent."""

    def test_equal_keys_give_one_object(self, q_halves):
        R2 = GroundRing(("a", "b"))
        for ring_, e in ((R, 3), (R, -2), (R2, 3), (GroundRing(), 0)):
            c = ring_.q_half(e)
            assert ring_.q_half(e) is c and GroundRing(ring_.symbols).q_half(e) is c
            fresh = GroundElem(ring_, {(0,) * ring_.nsym + (e,): 1})
            assert c == fresh and c.ring == ring_ and dict(c) == dict(fresh)
        # equal terms in two rings stay apart, as in the coefficient store
        assert R.q_half(3) is not R2.q_half(3) and R2.q_half(3).ring is R2
        assert R.q_half(3) is not R.q_half(-3) and len(q_halves) == 5  # GroundRing() is R
        assert q_halves[R, -2] is R.q_half(-2)

    def test_kept_terms_are_read_only(self, q_halves):
        c = R.q_half(5)
        for attempt in mutations(c, (5,)):
            with pytest.raises(TypeError):
                attempt()
        for attempt in (lambda: setattr(c, "terms", {}), lambda: setattr(c, "ring", GroundRing(("a",)))):
            with pytest.raises(AttributeError):
                attempt()
        again = R.q_half(5)
        assert again is c and dict(again) == {(5,): 1} and again.ring is R

    def test_a_second_init_changes_nothing(self, q_halves):
        # a coefficient is built whole when it is made: calling __init__
        # again on it rebinds no ring and merges no terms, kept or not
        c = R.q_half(5)
        c.__init__(GroundRing(("a",)), {(1, 2): 3})
        again = R.q_half(5)
        assert again is c and dict(again) == {(5,): 1} and again.ring is R
        for e in (hl({1: 2, -3: 1}), R.zero(), GroundElem(GroundRing(("a",)), {(1, 2): 3})):
            before, ring_ = dict(e), e.ring
            e.__init__(R, {(7,): 4})
            assert dict(e) == before and e.ring is ring_

    def test_evicts_the_oldest_at_the_bound(self, q_halves, monkeypatch):
        monkeypatch.setattr(ring, "KEPT_MAX", 3)
        first = [R.q_half(e) for e in range(4)]
        # q^0 went first; q^1 to q^3 are still the kept ones
        assert list(q_halves) == [(R, 1), (R, 2), (R, 3)]
        assert [R.q_half(e) for e in (1, 2, 3)] == first[1:]
        assert all(R.q_half(e) is first[e] for e in (1, 2, 3))
        # asking for q^0 again builds it anew and evicts q^1, the oldest left
        zero = R.q_half(0)
        assert zero is not first[0] and zero == first[0]
        assert list(q_halves) == [(R, 2), (R, 3), (R, 0)]
        assert R.q_half(1) is not first[1] and len(q_halves) == 3
