import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeintor.ring import GroundElem, GroundRing

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
