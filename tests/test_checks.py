import hashlib
import importlib.util
import inspect
import itertools
import math
import random
import sys
import weakref
from collections import Counter
from operator import add
from pathlib import Path

import pytest

from skeintor import checks, cli, pants
from skeintor.pants import lambda_contains
from skeintor.qtorus import AntisymMatrix, TorusElement, elem_mul, weyl_normalize
from skeintor.ring import GroundRing
from skeintor.surface import glued_product, lambda_global, standard_datum

ROOT = Path(__file__).resolve().parents[1]


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
            return value + tt.torus.monomial(c) if c == wrong else value

        monkeypatch.setattr(checks, "utr_coord_straight", bad)
        r = checks.check_trace_properties(3, 0)
        assert not r.passed
        assert r.detail["coord"] == witness and r.detail["reason"].startswith("twist: boundary")
        assert len(wrong) == 2 * r.detail["j"]


def assert_uniform_counts(counts: Counter, points: set):
    """Every value counted is one of ``points``, every point is counted,
    and the counts pass two bounds stated here.  Each count lies within 6
    standard deviations of its mean, and Pearson's chi-square statistic
    over the points lies below df + 6 sqrt(2 df) for df = len(points) - 1
    degrees of freedom.  For uniform draws on the 4 to 89 points used
    here, each bound fails with probability below 1e-3."""
    size, total = len(points), sum(counts.values())
    assert set(counts) <= points, f"drew {sorted(set(counts) - points)[:3]}, outside the box"
    assert set(counts) == points, f"{size - len(counts)} box points never drawn"
    mean = total / size
    sd = math.sqrt(total / size * (1 - 1 / size))
    worst = max(abs(c - mean) for c in counts.values())
    assert worst <= 6 * sd, f"a count is {worst / sd:.1f} sd from its mean"
    chi2 = sum((c - mean) ** 2 for c in counts.values()) / mean
    df = size - 1
    assert chi2 < df + 6 * math.sqrt(2 * df), f"chi-square {chi2:.1f} on {df} df"


class TestSamplers:
    """The direct samplers against exhaustive enumeration of the box."""

    @pytest.mark.parametrize("box", [2, 3])
    @pytest.mark.parametrize("gm", checks.LEAD_SURFACES)
    def test_global_table_counts_the_box(self, gm, box):
        datum = standard_datum(*gm)
        table = checks._global_table(datum, box)
        assert table.total == sum(1 for _ in _lambda_box(datum, box, box))

    @pytest.mark.parametrize("box", [2, 3])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_pants_table_counts_the_box(self, j, box):
        assert checks._pants_table(j, box).total == sum(1 for _ in _pants_box(j, box, box))

    # the trace-properties suite samples indices into the enumerated list,
    # so the tables must list the box in the filter's order
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_pants_table_lists_the_box_in_order(self, j):
        for box in range(7):
            got = list(checks._pants_table(j, box).points())
            assert got == list(_pants_box(j, box, box)), f"box {box}"

    @pytest.mark.parametrize("gm", checks.LEAD_SURFACES)
    def test_global_table_lists_the_box_in_order(self, gm):
        datum = standard_datum(*gm)
        for box in range(5):
            got = list(checks._global_table(datum, box).points())
            assert got == list(_lambda_box(datum, box, box)), f"box {box}"

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_core_firsts_are_the_first_coordinate_of_each_core(self, j):
        # a core is the lengths and the twists at the boundaries of length 0
        for box in range(6):
            table = checks._pants_table(j, box)
            seen, firsts = set(), set()
            for idx, c in enumerate(table.points()):
                core = (c[:j], tuple(c[j + i] if c[i] == 0 else 0 for i in range(j)))
                if core not in seen:
                    seen.add(core)
                    firsts.add(idx)
            assert checks._core_firsts(table) == firsts, f"box {box}"

    def test_pants_table_leaves_the_pants_caches_empty(self):
        pants.arc_counts.cache_clear()
        pants.base_twists.cache_clear()
        tables = {j: checks._pants_table(j, 10) for j in (1, 2, 3)}
        assert pants.arc_counts.cache_info().currsize == 0
        assert pants.base_twists.cache_info().currsize == 0
        # the same rows as with the canonical arcs' own twist as the floor
        for j, table in tables.items():
            def floors_of(n, j=j):
                if sum(n) % 2:
                    return None
                base = pants.base_twists(j, n)
                return tuple(base[i] if n[i] == 0 else -10 for i in range(j))
            reference = checks._BoxTable(j, 10, floors_of)
            assert table.rows == reference.rows and table.cum == reference.cum

    @staticmethod
    def assert_uniform(points: set, draw, per_point: int = 200):
        """``per_point * len(points)`` seeded draws pass
        :func:`assert_uniform_counts`."""
        assert_uniform_counts(Counter(draw() for _ in range(per_point * len(points))), points)

    @pytest.mark.parametrize("j, box", [(1, 3), (2, 2), (3, 1)])
    def test_pants_sampler_uniform(self, j, box):
        rng = random.Random(0)
        table = checks._pants_table(j, box)
        self.assert_uniform(set(_pants_box(j, box, box)), lambda: checks._sample_pants(rng, j, table))

    @pytest.mark.parametrize("gm, box", [((0, 4), 3), ((0, 5), 2), ((2, 0), 1)])
    def test_global_sampler_uniform(self, gm, box):
        rng = random.Random(0)
        datum = standard_datum(*gm)
        table = checks._global_table(datum, box)
        self.assert_uniform(set(_lambda_box(datum, box, box)),
                            lambda: checks._sample_global(rng, datum, table))

    def test_samples_are_members(self):
        rng = random.Random(1)
        for j in (1, 2, 3):
            table = checks._pants_table(j, 10)
            assert all(lambda_contains(j, checks._sample_pants(rng, j, table)) for _ in range(2000))
        for gm in checks.LEAD_SURFACES:
            datum = standard_datum(*gm)
            table = checks._global_table(datum, 8)
            assert all(lambda_global(datum, checks._sample_global(rng, datum, table)) for _ in range(2000))

    def test_a_drawn_non_member_raises(self):
        # a table that ignores the twist floors draws non-members, which
        # the sampler's own membership test must catch
        table = checks._BoxTable(3, 2, lambda n: None if sum(n) % 2 else (-2, -2, -2))
        rng = random.Random(0)
        with pytest.raises(AssertionError, match="not in Lambda_3"):
            for _ in range(1000):
                checks._sample_pants(rng, 3, table)


def _upper(M):
    """The strict upper triangle of a matrix, row by row."""
    n = len(M.rows)
    return [M.rows[i][j] for i in range(n) for j in range(i + 1, n)]


def _law_cases(seed, count):
    """``count`` monomial and then ``count`` Weyl cases drawn from the
    seed, each with the rows of its torus's matrix."""
    rng, tori = random.Random(seed), {}
    mono = [checks._monomial_case(rng, tori) for _ in range(count)]
    weyl = [checks._weyl_case(rng, tori) for _ in range(count)]
    return [(T.matrix.rows, a, b) for T, a, b in mono] + [(T.matrix.rows, seq) for T, seq in weyl]


ENTRY_BOX = set(range(-3, 4))
EXPONENT_BOX = set(range(-6, 7))


def assert_monomial_draw(cases: int = 20000):
    """Seeded monomial cases: the rank, every matrix entry and every
    exponent are uniform on their ranges (:func:`assert_uniform_counts`)."""
    rng, tori = random.Random(0), {}
    ranks, entries, exponents = Counter(), Counter(), Counter()
    for _ in range(cases):
        T, a, b = checks._monomial_case(rng, tori)
        M = T.matrix
        n = len(M.rows)
        assert len(a) == len(b) == n
        ranks[n] += 1
        entries.update(_upper(M))
        exponents.update(a + b)
    assert_uniform_counts(ranks, set(range(1, 6)))
    assert_uniform_counts(entries, ENTRY_BOX)
    assert_uniform_counts(exponents, EXPONENT_BOX)


def assert_weyl_draw(cases: int = 20000):
    """Seeded Weyl cases: the rank, the word length and every matrix entry
    are uniform, and so is each letter (generator, exponent) given the rank."""
    rng, tori = random.Random(0), {}
    ranks, lengths, entries = Counter(), Counter(), Counter()
    letters = {n: Counter() for n in range(1, 5)}
    for _ in range(cases):
        T, seq = checks._weyl_case(rng, tori)
        M = T.matrix
        n = len(M.rows)
        ranks[n] += 1
        lengths[len(seq)] += 1
        entries.update(_upper(M))
        letters[n].update(seq)
    assert_uniform_counts(ranks, set(range(1, 5)))
    assert_uniform_counts(lengths, set(range(6)))
    assert_uniform_counts(entries, ENTRY_BOX)
    for n, counts in letters.items():
        assert_uniform_counts(counts, set(itertools.product(range(n), ENTRY_BOX)))


class TestLawCaseDraw:
    """The quantum-torus-laws suite draws each case as its size and then
    one integer read in mixed radix."""

    def test_same_seed_same_cases(self):
        assert _law_cases(3, 300) == _law_cases(3, 300)
        assert _law_cases(3, 300) != _law_cases(4, 300)

    def test_seed_0_draws_the_cases_of_earlier_versions(self):
        # the first 1000 monomial and 1000 Weyl cases at seed 0 as the
        # decoders have drawn them since the mixed-radix draw came in
        cases = _law_cases(0, 1000)
        assert cases[:2] == [
            (((0, -1, 1, 3), (1, 0, -2, -2), (-1, 2, 0, -1), (-3, 2, 1, 0)), (-3, -1, 1, -1), (-1, -6, 4, -6)),
            (((0, -1, 0), (1, 0, -1), (0, 1, 0)), (-3, -6, -6), (-5, 2, 2)),
        ]
        assert cases[1000:1002] == [
            (((0, 1), (-1, 0)), []),
            (((0, 1, 1), (-1, 0, 0), (-1, 0, 0)), [(2, 1), (0, -1), (0, -1), (2, -2)]),
        ]
        digest = hashlib.sha256(repr(cases).encode()).hexdigest()
        assert digest == "183aa535e47e6176b150036b9645cb80d79b95fc6c9eb51157392cf6d52437d9"

    @pytest.mark.parametrize("n", [1, 2])
    def test_decode_is_a_bijection_onto_the_box(self, n):
        m = n * (n - 1) // 2
        size = 7 ** m * 13 ** (2 * n)
        seen = set()
        tori = {}
        for k in range(size):
            T, a, b = checks._decode_monomial(tori, n, k)
            M = T.matrix
            assert len(M.rows) == len(a) == len(b) == n
            assert set(_upper(M)) <= ENTRY_BOX and set(a + b) <= EXPONENT_BOX, k
            seen.add((M.rows, a, b))
        # size distinct cases, all in a box of size cases
        assert len(seen) == size

    def test_monomial_cases_are_uniform(self):
        assert_monomial_draw()

    def test_weyl_cases_are_uniform(self):
        assert_weyl_draw()

    @pytest.mark.parametrize("name, values", [
        ("_ENTRIES", range(-3, 3)), ("_ENTRIES", range(-3, 5)),
        ("_ENTRIES", range(-2, 4)), ("_ENTRIES", range(-4, 4)),
        ("_EXPONENTS", range(-6, 6)), ("_EXPONENTS", range(-6, 8)),
        ("_EXPONENTS", range(-5, 7)), ("_EXPONENTS", range(-7, 7)),
    ])
    def test_a_digit_range_off_by_one_fails(self, monkeypatch, name, values):
        monkeypatch.setattr(checks, name, values)
        with pytest.raises(AssertionError):
            assert_monomial_draw(3000)
            assert_weyl_draw(3000)


def _recorded_laws(monkeypatch, mono_pairs, weyl_cases, seed):
    """What the torus-laws suite hands ``elem_mul`` and ``weyl_normalize``,
    in order: ("mul", torus, a, b, the two coefficients) per monomial
    case and ("weyl", torus, word) per normalization."""
    calls = []

    def mul(e1, e2):
        (a, c1), = e1.terms.items()
        (b, c2), = e2.terms.items()
        assert e1.torus is e2.torus
        calls.append(("mul", e1.torus, a, b, c1, c2))
        return elem_mul(e1, e2)

    def normalize(torus, seq):
        calls.append(("weyl", torus, list(seq)))
        return weyl_normalize(torus, seq)

    monkeypatch.setattr(checks, "elem_mul", mul)
    monkeypatch.setattr(checks, "weyl_normalize", normalize)
    r = checks.check_qtorus_laws(mono_pairs, weyl_cases, seed=seed)
    assert r.passed and r.checked == mono_pairs + weyl_cases
    return calls


def _drawn_laws(mono_pairs, weyl_cases, seed):
    """The cases ``_monomial_case`` and ``_weyl_case`` draw from the seed,
    with each Weyl word's shuffled copy, as the suite should hand them on;
    each with the matrix of its torus."""
    rng, tori = random.Random(seed), {}
    out = []
    for _ in range(mono_pairs):
        T, a, b = checks._monomial_case(rng, tori)
        out.append(("mul", T.matrix, a, b))
    for _ in range(weyl_cases):
        T, seq = checks._weyl_case(rng, tori)
        perm = seq[:]
        rng.shuffle(perm)
        out += [("weyl", T.matrix, seq), ("weyl", T.matrix, perm)]
    return out


class TestLawsKeptTori:
    """The torus-laws suite keeps one torus per matrix of rank at most 3
    and still checks exactly the drawn cases, in order."""

    @pytest.mark.parametrize("seed", [0, 11])
    def test_checks_the_drawn_cases_in_order(self, monkeypatch, seed):
        calls = _recorded_laws(monkeypatch, 400, 200, seed)
        assert [(kind, T.matrix, *rest[:2]) for kind, T, *rest in calls] == _drawn_laws(400, 200, seed)
        # both factors of every monomial case carry the one unit coefficient
        units = {id(c) for call in calls if call[0] == "mul" for c in call[4:]}
        assert len(units) == 1
        c = calls[0][4]
        assert c == GroundRing().one() and c.ring == GroundRing()
        assert all(T.ring == GroundRing() for _, T, *_ in calls)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_one_torus_per_small_matrix(self, monkeypatch, seed):
        # the recorded calls hold every torus, so no two share an id
        tori, cases = {}, Counter()
        for _, T, *_ in _recorded_laws(monkeypatch, 400, 200, seed):
            tori.setdefault(T.matrix, set()).add(id(T))
            cases[T.matrix] += 1
        small = [M for M in tori if M.dim <= 3]
        # all 8 matrices of rank 1 and 2 come up, and small ones repeat
        assert sum(M.dim <= 2 for M in small) == 8 and sum(cases[M] for M in small) > 2 * len(small)
        assert all(len(tori[M]) == 1 for M in small)


class TestProductsCheckTheDrawnPairs:
    """The top-term suite hands ``glued_product`` exactly the pairs its
    sampler draws from the seed, in order, so a faster product path
    cannot change which cases are checked."""

    @pytest.mark.parametrize("seed", [0, 11])
    def test_checks_the_drawn_pairs_in_order(self, monkeypatch, seed):
        calls = []

        def product(datum, k, l):
            calls.append((datum, k, l))
            return glued_product(datum, k, l)

        monkeypatch.setattr(checks, "glued_product", product)
        r = checks.check_product_top(pairs=200, seed=seed)
        assert r.passed and r.checked == 4 * 200
        rng, drawn = random.Random(seed), []
        for g, m in checks.LEAD_SURFACES:
            datum = standard_datum(g, m)
            table = checks._global_table(datum, 3)
            for _ in range(200):
                k = checks._sample_global(rng, datum, table)
                drawn.append((datum, k, checks._sample_global(rng, datum, table)))
        assert calls == drawn


def _swapped_mul(e1, e2):
    # x^b x^a = q^(pairing(b, a)/2) x^(a+b): the pairing's sign flipped
    return elem_mul(e2, e1)


def _unshifted_mul(e1, e2):
    # the exponents add, the q-shift is dropped
    (k, _), = e1.terms.items()
    (l, _), = e2.terms.items()
    return e1.torus.monomial(tuple(map(add, k, l)))


class TestLawsNegativeControls:
    @pytest.mark.parametrize("mutant", [_swapped_mul, _unshifted_mul])
    def test_a_wrong_monomial_product_fails(self, monkeypatch, mutant):
        monkeypatch.setattr(checks, "elem_mul", mutant)
        r = checks.check_qtorus_laws(2000, 0, seed=0)
        assert not r.passed and r.detail["reason"] == "monomial product"
        # the witness: the first case whose pairing is not 0
        a, b = r.detail["pair"]
        assert AntisymMatrix(r.detail["matrix"]).pairing(a, b) != 0
        assert 1 <= r.checked < 100

    @pytest.mark.parametrize("terms", [0, 2])
    def test_a_product_of_other_than_one_term_is_a_failure(self, monkeypatch, terms):
        def mutant(e1, e2):
            prod = elem_mul(e1, e2)
            if terms == 0:
                return prod.torus.zero()
            (k, _), = prod.terms.items()
            return prod + prod.torus.monomial(tuple(x + 1 for x in k))

        monkeypatch.setattr(checks, "elem_mul", mutant)
        r = checks.check_qtorus_laws(10, 0, seed=0)
        assert not r.passed and r.checked == 1
        assert r.detail["terms"] == terms and set(r.detail) == {"matrix", "pair", "terms", "reason"}

    def test_a_wrong_chebyshev_coefficient_fails_at_its_k(self, monkeypatch):
        right = checks.chebyshev

        def wrong(k):
            c = list(right(k))
            if k == 9:
                c[3] += 1
            return tuple(c)

        monkeypatch.setattr(checks, "chebyshev", wrong)
        r = checks.check_chebyshev()
        assert not r.passed and r.detail == {"k": 9} and r.checked == 10


def test_the_battery_grid_reports_the_benchmark_counts(monkeypatch):
    # the benchmark's battery counts a suite whose check count differs from
    # BATTERY_COUNTS as failed; a suite rewrite that changes a count fails here
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    grid = ",".join(f"{k}={v}" for k, v in workloads.BATTERY_GRID.items())
    results = checks.run_all(seed=0, **cli._parse_grid(grid))
    assert {r.name: (r.passed, r.checked) for r in results} == {
        name: (True, count) for name, count in workloads.BATTERY_COUNTS.items()
    }
