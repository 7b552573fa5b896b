"""Acceptance suite.

One test per criterion, each run at its stated size with exact
arithmetic and asserted against its runtime budget; every test prints a
single pass/fail summary line (visible with ``pytest -s`` or
``skeintor check``).
"""

from skeintor import checks


def _run(result, budget):
    print(result.summary())
    assert result.passed, result.detail
    assert result.elapsed < budget, f"runtime {result.elapsed:.1f}s exceeds {budget}s budget"


def test_criterion_01_pi_degree_reproduction():
    # index of the kernel lattice equals the squared PI-degree for every
    # surface with 1 <= r <= 4 (torus cases excluded) and order <= 12
    _run(checks.check_pi_degree_grid(rmax=4, nmax=12), budget=10)


def test_criterion_02_kernel_lattice_form():
    # the kernel lattice is the scaled span (odd case) or scaled even
    # sublattice (even case), as canonical-basis equality
    _run(checks.check_kernel_form(rmax=4, nmax=12), budget=10)


def test_criterion_03_even_index_identity():
    # the even sublattice has index 4^genus; a 4^r reading would be
    # flagged in the failure detail, never silently accepted
    _run(checks.check_even_index(rmax=4), budget=5)


def test_criterion_04_lead_term_theorem():
    # glued traces over the four reference surfaces have a unique top
    # term whose exponent is the input coordinate, on the |n|,|t| <= 4 box
    _run(checks.check_lead_term(box=4), budget=60)


def test_criterion_05_top_degree_products():
    # >= 10^4 random pairs per surface: the doubled pairing is even and
    # the product's top term is the half-pairing power times the sum monomial
    _run(checks.check_product_top(pairs=10000, seed=0), budget=60)


def test_criterion_06_trace_property_suite():
    # boundary grading, twist rule, and top-term exponent over the
    # |n|,|t| <= 6 boxes of all three pants types
    _run(checks.check_trace_properties(box=6, seed=0), budget=30)


def test_criterion_07_monoid_closures():
    # >= 10^4 random pairs per pants monoid and per surface monoid stay closed
    _run(checks.check_monoid_closure(pairs=10000, seed=0), budget=5)


def test_criterion_08_coordinate_catalog():
    # the coordinates of every standard curve match the defining tables
    _run(checks.check_dt_catalog(), budget=5)


def test_criterion_09_chebyshev_oracle():
    # T_k(x + 1/x) = x^k + x^-k for k <= 64
    _run(checks.check_chebyshev(), budget=1)


def test_criterion_10_quantum_torus_laws():
    # 10^5 random monomial products, 10^4 normalization permutation
    # checks, and reflection invariance of normalized monomials
    _run(checks.check_qtorus_laws(mono_pairs=100000, weyl_cases=10000, seed=0), budget=10)
