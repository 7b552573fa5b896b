import inspect
import itertools
import math
import random
import weakref
from collections import Counter

import pytest

from skeintor import checks, pants
from skeintor.pants import lambda_contains
from skeintor.qtorus import TorusElement
from skeintor.surface import lambda_global, standard_datum


def _lambda_box(datum, nmax, tmax):
    """The global monoid points of a box, by filtering the whole box."""
    r = datum.r
    for n in itertools.product(range(0, nmax + 1), repeat=r):
        for t in itertools.product(range(-tmax, tmax + 1), repeat=r):
            c = n + t
            if lambda_global(datum, c):
                yield c


def _pants_box(j, nmax, tmax):
    """The points of ``Lambda_j`` in a box, by filtering the whole box."""
    for n in itertools.product(range(0, nmax + 1), repeat=j):
        if sum(n) % 2:
            continue
        for t in itertools.product(range(-tmax, tmax + 1), repeat=j):
            c = n + t
            if lambda_contains(j, c):
                yield c


class TestGrid:
    def test_surface_enumeration(self):
        got = checks.grid_surfaces(4)
        assert got == [
            (0, 4),
            (0, 5), (1, 2),
            (0, 6), (1, 3), (2, 0),
            (0, 7), (1, 4), (2, 1),
        ]
        assert (1, 1) not in got
        for g, m in got:
            assert 1 <= 3 * g - 3 + m <= 4

    def test_rmax_two(self):
        assert checks.grid_surfaces(2) == [(0, 4), (0, 5), (1, 2)]


class TestReproducibility:
    def test_same_seed_same_counts(self):
        a = checks.check_product_top(pairs=150, seed=3)
        b = checks.check_product_top(pairs=150, seed=3)
        assert a.passed and b.passed
        assert a.checked == b.checked

    def test_result_summary_shapes(self):
        r = checks.check_dt_catalog()
        assert r.summary().startswith("[PASS]")
        assert r.summary(timings=False).endswith("checks")


class TestNothingChecked:
    def test_empty_suite_fails(self):
        r = checks.check_monoid_closure(pairs=0)
        assert r.checked == 0 and not r.passed
        assert r.summary(timings=False).startswith("[FAIL]")


class TestSuiteHarness:
    """``checks._suite`` on toy suites."""

    def test_counts_the_checks_before_the_failure(self):
        @checks._suite("toy")
        def toy(fail_at):
            for i in range(10):
                yield
                if i == fail_at:
                    yield {"i": i}

        r = toy(3)
        assert (r.name, r.passed, r.checked, r.detail) == ("toy", False, 4, {"i": 3})
        r = toy(None)
        assert (r.passed, r.checked, r.detail) == (True, 10, {})

    def test_code_after_a_failure_never_runs(self):
        ran = []

        @checks._suite("toy")
        def toy():
            yield
            yield {"reason": "first"}
            ran.append("after the failure")
            yield

        r = toy()
        assert (r.passed, r.checked, r.detail) == (False, 1, {"reason": "first"})
        assert ran == []

    def test_zero_checks_fail(self):
        @checks._suite("toy")
        def toy():
            yield from ()

        r = toy()
        assert (r.passed, r.checked, r.detail) == (False, 0, {"reason": "no checks ran"})
        assert r.summary(timings=False) == "[FAIL] toy: 0 checks {'reason': 'no checks ran'}"

    def test_an_exception_propagates_unchanged(self):
        error = KeyError("inside the suite")

        @checks._suite("toy")
        def toy():
            yield
            raise error

        with pytest.raises(KeyError) as info:
            toy()
        assert info.value is error

    def test_suites_keep_name_and_signature(self):
        suite = checks.check_product_top
        assert suite.__name__ == "check_product_top"
        assert list(inspect.signature(suite).parameters) == ["pairs", "seed", "surfaces", "corrupt_qtilde"]
        assert suite.__annotations__["return"] == "CheckResult"
        assert isinstance(checks.check_dt_catalog(), checks.CheckResult)


class TestNegativeControl:
    def test_corrupted_form_detected(self):
        r = checks.check_product_top(pairs=300, seed=1, corrupt_qtilde=True)
        assert not r.passed
        assert "pair" in r.detail

    def test_run_all_small(self):
        results = checks.run_all(
            rmax=1, nmax=3, seed=2, lead_box=2, trace_box=2, pairs=50, mono_pairs=200
        )
        assert len(results) == 10
        assert all(r.passed for r in results)
        names = [r.name for r in results]
        assert names[0] == "pi-degree grid" and "chebyshev oracle" in names


def _reads(monkeypatch, box):
    """(coordinate checked, coordinate read) for every reference trace the
    trace-property suite's twist checks read at seed 0, in order; the
    suite must pass."""
    reads = []
    twist = checks.twist_violations

    def recorded(tt, coord, trace):
        def read(tt_, c):
            reads.append((coord, c))
            return trace(tt_, c)
        return twist(tt, coord, read)

    with monkeypatch.context() as m:
        m.setattr(checks, "twist_violations", recorded)
        assert checks.check_trace_properties(box, 0).passed
    return reads


class TestReferenceReuse:
    """The trace-property suite computes each reference trace once, and
    drops it once a twist check passes its coordinate."""

    def test_one_reference_trace_per_coordinate(self, monkeypatch):
        calls = Counter()
        straight = checks.utr_coord_straight

        def counted(tt, c):
            calls[c] += 1
            return straight(tt, c)

        monkeypatch.setattr(checks, "utr_coord_straight", counted)
        reads = _reads(monkeypatch, 4)
        assert len(reads) == 17741
        assert sum(calls.values()) == len(calls) == len({c for _, c in reads}) == 14503

    def test_passed_reference_traces_are_dropped(self, monkeypatch):
        # no check reads a trace below its own coordinate, so the suite
        # holds none: at box 4 it holds a few dozen at a time, not one per
        # coordinate
        class Traced(TorusElement):
            __slots__ = ("__weakref__",)

        refs = {}
        straight = checks.utr_coord_straight

        def traced(tt, c):
            value = straight(tt, c)
            value = Traced(value.torus, dict(value.terms))
            refs[c] = weakref.ref(value)
            return value

        held = []
        twist = checks.twist_violations

        def counted(tt, coord, trace):
            for c in [c for c, ref in refs.items() if ref() is None]:
                del refs[c]
            assert all(len(c) == len(coord) and c >= coord for c in refs), coord
            held.append(len(refs))
            return twist(tt, coord, trace)

        monkeypatch.setattr(checks, "utr_coord_straight", traced)
        monkeypatch.setattr(checks, "twist_violations", counted)
        assert checks.check_trace_properties(4, 0).passed
        assert len(held) == 5203 and max(held) < 32

    def test_a_wrong_reused_reference_fails(self, monkeypatch):
        # a reused coordinate is first read as the neighbour t + e_i of an
        # earlier one; a wrong reference trace there fails the first twist
        # check that reads it, and that check's coordinate is the witness
        reads = _reads(monkeypatch, 3)
        times = Counter(c for _, c in reads)
        wrong = next(c for _, c in reads if times[c] > 1)
        witness = next(coord for coord, c in reads if c == wrong)
        assert witness < wrong
        straight = checks.utr_coord_straight

        def bad(tt, c):
            value = straight(tt, c)
            return value + tt.monomial(c) if c == wrong else value

        monkeypatch.setattr(checks, "utr_coord_straight", bad)
        r = checks.check_trace_properties(3, 0)
        assert not r.passed
        assert r.detail["coord"] == witness and r.detail["reason"].startswith("twist: boundary")
        assert len(wrong) == 2 * r.detail["j"]


class TestSamplers:
    """The direct samplers against exhaustive enumeration of the box."""

    @pytest.mark.parametrize("box", [2, 3])
    @pytest.mark.parametrize("gm", checks.LEAD_SURFACES)
    def test_global_table_counts_the_box(self, gm, box):
        datum = standard_datum(*gm)
        table = checks._global_table(datum, box, box)
        assert table.total == sum(1 for _ in _lambda_box(datum, box, box))

    @pytest.mark.parametrize("box", [2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_pants_table_counts_the_box(self, j, box):
        assert checks._pants_table(j, box, box).total == sum(1 for _ in _pants_box(j, box, box))

    # the trace-properties suite samples indices into the enumerated list,
    # so the tables must list the box in the filter's order
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_pants_table_lists_the_box_in_order(self, j):
        for box in range(7):
            got = list(checks._pants_table(j, box, box).points())
            assert got == list(_pants_box(j, box, box)), f"box {box}"

    @pytest.mark.parametrize("gm", checks.LEAD_SURFACES)
    def test_global_table_lists_the_box_in_order(self, gm):
        datum = standard_datum(*gm)
        for box in range(5):
            got = list(checks._global_table(datum, box, box).points())
            assert got == list(_lambda_box(datum, box, box)), f"box {box}"

    def test_pants_table_leaves_the_pants_caches_empty(self):
        pants.arc_counts.cache_clear()
        pants.base_twists.cache_clear()
        tables = {j: checks._pants_table(j, 10, 10) for j in (1, 2, 3)}
        assert pants.arc_counts.cache_info().currsize == 0
        assert pants.base_twists.cache_info().currsize == 0
        # the same rows as with the canonical arcs' own twist as the floor
        for j, table in tables.items():
            def floors_of(n, j=j):
                if sum(n) % 2:
                    return None
                base = pants.base_twists(j, n)
                return tuple(base[i] if n[i] == 0 else -10 for i in range(j))
            reference = checks._BoxTable(j, 10, 10, floors_of)
            assert table.rows == reference.rows and table.cum == reference.cum

    @staticmethod
    def assert_uniform(points: set, draw, per_point: int = 200):
        """``per_point * len(points)`` seeded draws: every draw is a box
        point, every box point is drawn, and the counts pass two bounds
        stated here.  Each count lies within 6 standard deviations of its
        mean, and Pearson's chi-square statistic over the points lies
        below df + 6 sqrt(2 df) for df = len(points) - 1 degrees of
        freedom.  For a uniform sampler on the 11 to 89 points used here,
        each bound fails with probability below 1e-4."""
        size = len(points)
        counts = Counter(draw() for _ in range(per_point * size))
        assert set(counts) <= points, "drew a point outside box and monoid"
        assert set(counts) == points, f"{size - len(counts)} box points never drawn"
        p = 1 / size
        sd = math.sqrt(per_point * size * p * (1 - p))
        worst = max(abs(c - per_point) for c in counts.values())
        assert worst <= 6 * sd, f"a count is {worst / sd:.1f} sd from its mean"
        chi2 = sum((c - per_point) ** 2 for c in counts.values()) / per_point
        df = size - 1
        assert chi2 < df + 6 * math.sqrt(2 * df), f"chi-square {chi2:.1f} on {df} df"

    @pytest.mark.parametrize("j, box", [(1, 3), (2, 2), (3, 1)])
    def test_pants_sampler_uniform(self, j, box):
        rng = random.Random(0)
        table = checks._pants_table(j, box, box)
        self.assert_uniform(set(_pants_box(j, box, box)), lambda: checks._sample_pants(rng, j, table))

    @pytest.mark.parametrize("gm, box", [((0, 4), 3), ((0, 5), 2), ((2, 0), 1)])
    def test_global_sampler_uniform(self, gm, box):
        rng = random.Random(0)
        datum = standard_datum(*gm)
        table = checks._global_table(datum, box, box)
        self.assert_uniform(set(_lambda_box(datum, box, box)),
                            lambda: checks._sample_global(rng, datum, table))

    def test_samples_are_members(self):
        rng = random.Random(1)
        for j in (1, 2, 3):
            table = checks._pants_table(j, 10, 10)
            assert all(lambda_contains(j, checks._sample_pants(rng, j, table)) for _ in range(2000))
        for gm in checks.LEAD_SURFACES:
            datum = standard_datum(*gm)
            table = checks._global_table(datum, 8, 8)
            assert all(lambda_global(datum, checks._sample_global(rng, datum, table)) for _ in range(2000))

    def test_a_drawn_non_member_raises(self):
        # a table that ignores the twist floors draws non-members, which
        # the sampler's own membership test must catch
        table = checks._BoxTable(3, 2, 2, lambda n: None if sum(n) % 2 else (-2, -2, -2))
        rng = random.Random(0)
        with pytest.raises(AssertionError, match="not in Lambda_3"):
            for _ in range(1000):
                checks._sample_pants(rng, 3, table)
