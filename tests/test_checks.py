from skeintor import checks


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
