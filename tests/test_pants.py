import itertools
import random

import pytest

from skeintor import pants
from skeintor.pants import (
    ComponentSpec,
    arc_counts,
    base_twists,
    cross,
    decompose,
    lambda_contains,
    loop,
    nu_of_component,
    return_arc,
    twist_apply,
    twist_floors,
)
from skeintor.qtrace import _core_value, trace_torus, utr_coord


def sample_member(rng, j, nmax=10, tmax=10):
    while True:
        n = tuple(rng.randint(0, nmax) for _ in range(j))
        if sum(n) % 2:
            continue
        t = tuple(rng.randint(-tmax, tmax) for _ in range(j))
        if lambda_contains(j, n + t):
            return n + t


def add2(j, i, n):
    """Twice the Add bound at boundary ``i`` (1-based) for the lengths
    ``n``, an integer for any lengths (the bound is a half-integer off the
    parity constraint): the closed form ``twist_floors`` is checked against."""
    if j == 1:
        return 0
    if j == 2:
        return -n[1] if i == 1 else n[0]
    return max(0, n[i - 2] - n[i - 1] - n[i % 3])


def lengths_missing(rng, j, i):
    """Lengths in [0, 9] on ``j`` boundaries with an even sum, 0 at ``i``."""
    while True:
        n = [rng.randint(0, 9) for _ in range(j)]
        n[i - 1] = 0
        if sum(n) % 2 == 0:
            return tuple(n)


class TestAddFn:
    """The Add bound: the oracle ``add2`` is twice it, ``twist_floors``
    gives it at the boundaries the curve misses."""

    def test_examples(self):
        assert add2(3, 2, (2, 0, 0)) == 2
        assert add2(2, 1, (0, 4)) == -4
        assert add2(1, 1, (6,)) == 0
        assert twist_floors(3, (2, 0, 0)) == (None, 1, 0)
        assert twist_floors(2, (0, 4)) == (-2, None)
        assert twist_floors(1, (6,)) == (None,)
        assert twist_floors(1, (0,)) == (0,)

    def test_additivity_two_holed(self):
        # the two-holed and one-holed floors are linear in the lengths
        rng = random.Random(0)
        for _ in range(300):
            for j in (1, 2):
                for i in range(1, j + 1):
                    a, b = lengths_missing(rng, j, i), lengths_missing(rng, j, i)
                    s = tuple(x + y for x, y in zip(a, b))
                    assert twist_floors(j, s)[i - 1] == twist_floors(j, a)[i - 1] + twist_floors(j, b)[i - 1]

    def test_superadditive_three_holed(self):
        # closure needs the floor of a sum to not exceed the summed floors
        rng = random.Random(1)
        for _ in range(500):
            for i in (1, 2, 3):
                a, b = lengths_missing(rng, 3, i), lengths_missing(rng, 3, i)
                s = tuple(x + y for x, y in zip(a, b))
                assert twist_floors(3, s)[i - 1] <= twist_floors(3, a)[i - 1] + twist_floors(3, b)[i - 1]


class TestLambda:
    def test_examples(self):
        assert lambda_contains(3, (2, 0, 0, 5, 1, 0))
        assert not lambda_contains(3, (2, 0, 0, 5, 0, 0))
        assert lambda_contains(2, (0, 4, -2, 7))
        assert not lambda_contains(2, (0, 4, -3, 7))
        assert lambda_contains(1, (0, 3))
        assert not lambda_contains(1, (0, -1))

    def test_parity(self):
        assert not lambda_contains(3, (1, 0, 0, 0, 0, 0))
        assert not lambda_contains(2, (1, 2, 0, 0))
        assert not lambda_contains(1, (3, 0))

    def test_monoid_closure(self):
        rng = random.Random(2)
        for j in (1, 2, 3):
            for _ in range(2000):
                a = sample_member(rng, j)
                b = sample_member(rng, j)
                s = tuple(x + y for x, y in zip(a, b))
                assert lambda_contains(j, s)


class TestTwist:
    def test_examples(self):
        assert twist_apply(3, 1, (2, 0, 0, 0, 1, 0)) == (2, 0, 0, 1, 1, 0)
        assert twist_apply(3, 2, (2, 0, 0, 0, 1, 0)) == (2, 0, 0, 0, 1, 0)

    def test_membership_preserved_and_invertible(self):
        rng = random.Random(3)
        for j in (1, 2, 3):
            for _ in range(500):
                c = sample_member(rng, j)
                for i in range(1, j + 1):
                    c2 = twist_apply(j, i, c)
                    assert lambda_contains(j, c2)
                    if c[i - 1] > 0:
                        down = list(c2)
                        down[j + i - 1] -= 1
                        assert tuple(down) == c


class TestCatalog:
    def test_return_arcs(self):
        assert nu_of_component(3, return_arc(1)) == (2, 0, 0, 0, 1, 0)
        assert nu_of_component(3, return_arc(2)) == (0, 2, 0, 0, 0, 1)
        assert nu_of_component(3, return_arc(3)) == (0, 0, 2, 1, 0, 0)
        assert nu_of_component(2, return_arc(1)) == (2, 0, 0, 1)
        assert nu_of_component(2, return_arc(2)) == (0, 2, -1, 1)
        assert nu_of_component(1, return_arc(1)) == (2, 1)

    def test_loops_and_crosses(self):
        assert nu_of_component(3, loop(2)) == (0, 0, 0, 0, 1, 0)
        assert nu_of_component(3, cross(2, 3)) == (0, 1, 1, 0, 0, 0)
        assert nu_of_component(3, cross(1, 2, s=2, t=-1)) == (1, 1, 0, 2, -1, 0)

    def test_twisting_adds(self):
        base = nu_of_component(3, return_arc(1))
        twisted = nu_of_component(3, return_arc(1, m=4))
        assert twisted == (2, 0, 0, 4, 1, 0)
        assert tuple(a - b for a, b in zip(twisted, base)) == (0, 0, 0, 4, 0, 0)

    def test_invalid_component(self):
        with pytest.raises(ValueError):
            nu_of_component(1, cross(1, 2))
        with pytest.raises(ValueError):
            nu_of_component(2, loop(3))
        with pytest.raises(ValueError):
            nu_of_component(1, ComponentSpec("loop", (1,), (3,)))
        with pytest.raises(ValueError):
            nu_of_component(3, ComponentSpec("return", (1,), (0,), multiplicity=2))


# Every shape that breaks the rules of ComponentSpec, as a caller hands
# it in: built by loop, cross or return_arc, or passed to nu_of_component.
BAD_COMPONENTS = {
    "unknown kind": lambda: nu_of_component(3, ComponentSpec("arc", (1,), (0,))),
    "multiplicity 0": lambda: nu_of_component(3, ComponentSpec("loop", (1,), (), 0)),
    "negative multiplicity": lambda: nu_of_component(3, ComponentSpec("return", (1,), (0,), -1)),
    "loop with a twist": lambda: nu_of_component(3, ComponentSpec("loop", (1,), (3,))),
    "loop at two boundaries": lambda: nu_of_component(3, ComponentSpec("loop", (1, 2))),
    "cross built at equal boundaries": lambda: cross(2, 2),
    "cross passed at equal boundaries": lambda: nu_of_component(3, ComponentSpec("cross", (2, 2), (0, 0))),
    "cross at one boundary": lambda: nu_of_component(3, ComponentSpec("cross", (1,), (0, 0))),
    "cross with one twist": lambda: nu_of_component(3, ComponentSpec("cross", (1, 2), (0,))),
    "cross with three twists": lambda: nu_of_component(3, ComponentSpec("cross", (1, 2), (0, 0, 0))),
    "return with no twist": lambda: nu_of_component(3, ComponentSpec("return", (1,))),
    "return with two twists": lambda: nu_of_component(3, ComponentSpec("return", (1,), (0, 1))),
    "return at two boundaries": lambda: nu_of_component(3, ComponentSpec("return", (1, 2), (0,))),
}


class TestComponentRecords:
    """The records check nothing when built; the entry points that take
    a component from a caller do, and decompose builds valid ones."""

    @pytest.mark.parametrize("build", BAD_COMPONENTS.values(), ids=BAD_COMPONENTS.keys())
    def test_invalid_shapes_are_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_decompositions_hold_valid_components(self):
        # every component of a member of the box-4 grids keeps the rules
        # of its kind and lies on its pants type
        seen = set()
        for j in (1, 2, 3):
            for n in itertools.product(range(5), repeat=j):
                for t in itertools.product(range(-4, 5), repeat=j):
                    if lambda_contains(j, n + t):
                        for c in decompose(j, n + t).components:
                            assert pants._checked(c) is c and c.multiplicity >= 1
                            nu_of_component(j, c._replace(multiplicity=1))
                            seen.add((j, c.kind))
        assert {kind for _, kind in seen} == {"loop", "cross", "return"} and {j for j, _ in seen} == {1, 2, 3}

    def test_records_are_tuples_of_their_fields(self):
        assert loop(2) == ("loop", (2,), (), 1) and loop(2).boundaries == (2,)
        assert cross(1, 3, 4, -5) == ("cross", (1, 3), (4, -5), 1) and cross(1, 3, 4, -5).twists == (4, -5)
        d = decompose(3, (2, 2, 2, 1, 0, -1))
        assert d == (3, tuple(("cross", key, (0, 0), 1) for key in ((1, 2), (1, 3), (2, 3))), (1, 0, -1))
        assert d.components[2].boundaries == (2, 3) and d.twists == (1, 0, -1)


class TestDecompose:
    def test_examples(self):
        d = decompose(1, (4, 2))
        assert d.components == (ComponentSpec("return", (1,), (0,), 2),)
        assert d.twists == (0,)

        d = decompose(3, (0, 0, 0, 1, 0, 2))
        kinds = sorted((c.kind, c.boundaries, c.multiplicity) for c in d.components)
        assert kinds == [("loop", (1,), 1), ("loop", (3,), 2)]

        d = decompose(2, (0, 2, -1, 1))
        assert d.components == (ComponentSpec("return", (2,), (0,), 1),)
        assert d.twists == (0, 0)

    def test_not_a_member(self):
        with pytest.raises(ValueError):
            decompose(1, (0, -2))

    def test_raises_exactly_off_the_monoid(self):
        # decompose decides membership by the loop counts, not by lambda_contains
        for j in (1, 2, 3):
            for n in itertools.product(range(-1, 5), repeat=j):
                for t in itertools.product(range(-4, 5), repeat=j):
                    coord = n + t
                    if lambda_contains(j, coord):
                        decompose(j, coord)
                    else:
                        with pytest.raises(ValueError):
                            decompose(j, coord)

    def test_round_trip_box(self):
        for j in (1, 2, 3):
            for n in itertools.product(range(0, 9), repeat=j):
                if sum(n) % 2:
                    continue
                for t in itertools.product(range(-8, 9), repeat=j):
                    coord = n + t
                    if lambda_contains(j, coord):
                        assert decompose(j, coord).nu() == coord

    def test_arc_counts_triangle_and_returns(self):
        crosses, returns = arc_counts(3, (2, 2, 2))
        assert crosses == {(1, 2): 1, (1, 3): 1, (2, 3): 1} and not returns
        crosses, returns = arc_counts(3, (4, 1, 1))
        assert crosses == {(1, 2): 1, (1, 3): 1} and returns == {1: 1}
        crosses, returns = arc_counts(2, (3, 1))
        assert crosses == {(1, 2): 1} and returns == {1: 1}

    def test_cached_arc_counts_are_read_only(self):
        # the counts are cached; a caller must not be able to change the
        # traces computed from them later
        coord = (2, 2, 2, 1, 1, 1)
        before = utr_coord(trace_torus(3), coord)
        crosses, returns = arc_counts(3, (2, 2, 2))
        try:
            with pytest.raises(AttributeError):
                crosses.clear()
            with pytest.raises(TypeError):
                crosses[(1, 2)] = 5
            with pytest.raises(TypeError):
                returns[1] = 1
            _core_value.cache_clear()
            assert utr_coord(trace_torus(3), coord) == before
        finally:
            for cache in (arc_counts, base_twists, _core_value):
                cache.cache_clear()

    def test_base_twists_match_add_at_missed_boundaries(self):
        # twist_floors is the canonical arcs' own twist and half the Add
        # value where the curve misses a boundary, None where it meets
        # it, and None in place of the tuple off the monoid's lengths
        for j in (1, 2, 3):
            for n in itertools.product(range(-1, 9), repeat=j):
                floors = twist_floors(j, n)
                if min(n) < 0 or sum(n) % 2:
                    assert floors is None, n
                    continue
                base = base_twists(j, n)
                for i in range(1, j + 1):
                    if n[i - 1] == 0:
                        assert 2 * floors[i - 1] == 2 * base[i - 1] == add2(j, i, n), (n, i)
                    else:
                        assert floors[i - 1] is None, (n, i)
