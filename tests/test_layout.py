"""Every definition in the package has a caller outside the tests,
every entry point the traced benchmark wraps exists under its name,
each sampler of the check suites tests its draws for membership,
every check suite runs under the one suite harness, every
module-level cache but the trace tori has a bound, only ``ring``
multiplies coefficients term pair by term pair, no check suite
orders a lead by a full degree vector, every kept dict (on a datum,
the store of kept coefficients or the kept q-powers) is written only
through the one bounded ``ring.keep``, the store is fed only by the two trace caches
and the glued cores, the README names every module-level cache
with its size and every datum-kept value, the pants records are
NamedTuples checked only by the entry points that take a component,
the pants tori and the surface torus take their form from the one
``qtorus.tilde_q``, the twist bound is stated once, in
``pants.twist_floors``, importing the package loads only the
standard library and builds no dataclass, and a traced slice of the
``glue``, ``pants-traces`` and ``center`` benchmark workloads sees
every layer ``tracing.COVERAGE`` names for it.

A module-level function or class, or a public method, counts as used
when its name is read somewhere in ``src/skeintor`` outside its own
definition and outside ``__init__.py`` (whose re-exports are not
callers), or anywhere in the benchmark scripts under ``perfbench/``,
which name some targets as strings.  Methods are matched by attribute
access only, so a local variable of the same name does not count.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from skeintor import pants, qtrace, ring
from skeintor.arith import even_sublattice
from skeintor.surface import DTDatum, standard_datum

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skeintor"

# Kept without a caller in the package, and why.
ALLOWED = {
    "pants.Decomposition.nu": "inverse of decompose, checked by the round-trip tests",
    "surface.DTDatum.to_json": "inverse of from_json, the datum file format",
}


def _names(tree, *, load_names: bool, strings: bool) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif load_names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
    return out


def _definitions():
    """(qualified name, bare name, is_method, node) for every checked definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name, False, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True, item


def _uses() -> tuple[list[str], list[str]]:
    """Names read as plain names or attributes, and as attributes only."""
    names, attrs = [], []
    files = [(p, False) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [(p, True) for p in (ROOT / "perfbench").glob("*.py")]
    for path, strings in files:
        tree = ast.parse(path.read_text())
        names += _names(tree, load_names=True, strings=strings)
        attrs += _names(tree, load_names=False, strings=strings)
    return names, attrs


def test_every_definition_has_a_caller():
    names, attrs = _uses()
    unused = []
    for qual, name, is_method, node in _definitions():
        pool = attrs if is_method else names
        own = _names(node, load_names=not is_method, strings=False).count(name)
        if pool.count(name) - own <= 0 and qual not in ALLOWED:
            unused.append(qual)
    assert not unused, f"defined but never called outside the tests: {unused}"


def test_allowlist_names_exist():
    defined = {qual for qual, *_ in _definitions()}
    assert set(ALLOWED) <= defined


# The membership test each sampler runs on its draw; the traced run reads
# the sampler accept ratio from these calls.
SAMPLER_MEMBERSHIP = {"_sample_global": "lambda_global", "_sample_pants": "lambda_contains"}


def test_traced_benchmark_targets_exist():
    # perfbench/tracing.py wraps module attributes by name, so a rename
    # must fail here rather than in a traced run
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    for module, attr, _ in targets:
        top = {
            node.name
            for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert attr in top, f"perfbench wraps {module}.{attr}, which is not defined there"
    assert callable(qtrace._core_value.cache_info)
    samplers = {
        node.name: node
        for node in ast.parse((PACKAGE / "checks.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_sample_")
    }
    assert set(samplers) == set(SAMPLER_MEMBERSHIP)
    for name, node in samplers.items():
        called = {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        assert SAMPLER_MEMBERSHIP[name] in called, f"checks.{name} does not call {SAMPLER_MEMBERSHIP[name]}"


def test_traced_battery_needs_the_accept_ratio():
    # with no membership test under a sampler the ratio reads 0, and the
    # traced battery run must stop on it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    summary = {m: 1 for m, _ in tracing.METRICS}
    summary.update({"bench.self_s": 0.0, "checks.sampler_accept_ratio": 0.0})
    assert tracing.coverage_problems("battery", summary) == ["checks.sampler_accept_ratio is 0"]


def test_check_suites_go_through_the_harness():
    # checks._suite is the one place that times a suite, counts its checks
    # and builds its CheckResult; a suite that does so itself must fail here
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    suites = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")]
    assert len(suites) == 10
    bare = [
        node.name
        for node in suites
        if not any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_suite" for d in node.decorator_list)
    ]
    assert not bare, f"check suites not decorated with _suite: {bare}"
    harness = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_suite")
    allowed = set(map(id, ast.walk(harness)))
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(tree if path.name == "checks.py" else ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult" and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"CheckResult built outside checks._suite: {stray}"


# The full degrees, which ask for the lengths of every term again; and
# the entry points that order a lead for the suites by the twist part.
FULL_DEGREES = {"d_embed", "pants_degree"}
LEAD_ENTRY_POINTS = {"surface": {"glued_key"}, "qtrace": {"lead_violation"}}


def _full_degree_uses(tree: ast.AST, names) -> list[str]:
    """The top-level functions among ``names`` (a predicate on the name)
    that read ``d_embed`` or ``pants_degree``, as a name or an attribute."""
    return [
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and names(top.name)
        for node in ast.walk(top)
        if (getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)) in FULL_DEGREES
    ]


def test_suites_order_leads_by_the_twist_part():
    # every term of a glued value or a pants value has the same lengths,
    # so no check suite, nor the lead entry points they call, builds a
    # full d_embed or pants_degree vector per term
    found = _full_degree_uses(ast.parse((PACKAGE / "checks.py").read_text()), lambda n: n.startswith("check_"))
    for module, names in LEAD_ENTRY_POINTS.items():
        found += _full_degree_uses(ast.parse((PACKAGE / f"{module}.py").read_text()), names.__contains__)
    assert not found, f"a full degree orders a lead in: {found}"
    for bad in ("def check_x(datum, v):\n    return lead_term(v, lambda k: d_embed(datum, k))",
                "def check_x(j, v):\n    return lead_term(v, partial(qtrace.pants_degree, j))"):
        assert _full_degree_uses(ast.parse(bad), lambda n: n.startswith("check_")) == ["check_x"], bad


def _is_key_sum(node) -> bool:
    """``map(add, ka, kb)``, or a generator summing two keys entry by entry."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "map" and getattr(node.args[0], "id", None) == "add"
    return isinstance(node, ast.GeneratorExp) and isinstance(node.elt, ast.BinOp) and isinstance(node.elt.op, ast.Add)


def _is_product_accumulation(node) -> bool:
    """``<d>.get(<k>, 0) + <a> * <b>``, or ``<d>[<k>] += <a> * <b>``."""
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Add) and isinstance(node.target, ast.Subscript) and (
            isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Mult))
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and isinstance(node.left, ast.Call) and getattr(node.left.func, "attr", None) == "get"
        and len(node.left.args) == 2 and getattr(node.left.args[1], "value", None) == 0
        and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Mult)
    )


def _term_pair_products(tree: ast.AST) -> set[str]:
    """The top-level functions and classes holding a loop over term pairs
    that accumulates coefficient products: a for loop, inside another,
    whose body both sums two keys and adds a product under a key."""
    found = set()
    for top in tree.body:
        for outer in ast.walk(top):
            if not isinstance(outer, ast.For):
                continue
            for inner in ast.walk(outer):
                if isinstance(inner, ast.For) and inner is not outer:
                    body = [n for stmt in inner.body for n in ast.walk(stmt)]
                    if any(map(_is_key_sum, body)) and any(map(_is_product_accumulation, body)):
                        found.add(top.name)
    return found


def test_only_ring_multiplies_term_pairs():
    # ring.flat_mul and ring.flat_accumulate are the one term-pair
    # product, so a faster product (Kronecker substitution) replaces one
    # function rather than a loop in each of its callers
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= {f"{path.stem}.{name}" for name in _term_pair_products(ast.parse(path.read_text()))}
    assert found == {"ring.flat_mul", "ring.flat_accumulate"}, f"term-pair products outside ring: {found}"
    # the scan sees the shapes these loops were written in, and not the
    # q-shift loop of the pants trace's Gaussian binomials
    for bad in (
        "def f(a, b):\n for ka, ca in a:\n  for kb, cb in b:\n   k = tuple(map(add, ka, kb))\n"
        "   out[k] = out.get(k, 0) + ca * cb",
        "class E:\n def m(a, b):\n  for ka, ca in a:\n   for kb, cb in b:\n"
        "    k = tuple(x + y for x, y in zip(ka, kb))\n    s = out.get(k, 0) + ca * cb",
        "def f(a, b):\n for ka, ca in a:\n  for kb, cb in b:\n   out[tuple(map(add, ka, kb))] += ca * cb",
    ):
        assert _term_pair_products(ast.parse(bad)), bad
    shift = ("def f(terms, gauss):\n for key, c in terms:\n  for s, g in enumerate(gauss):\n"
             "   k = key[:-1] + (key[-1] - 2 * s,)\n   acc[k] = acc.get(k, 0) + c * g")
    assert not _term_pair_products(ast.parse(shift))


def _called(node) -> str | None:
    """The name a call calls, plain or as an attribute; None for a non-call."""
    return getattr(node.func, "id", getattr(node.func, "attr", None)) if isinstance(node, ast.Call) else None


def _untilded_tori(tree: ast.AST) -> list[int]:
    """Lines of the ``QuantumTorus(...)`` calls whose matrix is not a
    ``tilde_q(...)`` call."""
    bad = []
    for node in ast.walk(tree):
        if _called(node) == "QuantumTorus":
            matrix = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "matrix"), None)
            if _called(matrix) != "tilde_q":
                bad.append(node.lineno)
    return bad


def test_tori_take_their_form_from_tilde_q():
    # the pants tori and the surface torus share one builder of the x-u
    # block, so the surface form restricts to the sum of the face forms
    # and gluing takes products to products (test_surface.py's
    # TestGluingIdentity); the random tori of the torus-law suite are free
    for name in ("qtrace.py", "surface.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        assert any(_called(n) == "QuantumTorus" for n in ast.walk(tree)), name
        assert not _untilded_tori(tree), f"{name}: a torus not on tilde_q at lines {_untilded_tori(tree)}"
    builders = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "tilde_q"]
    assert builders == ["qtorus.tilde_q"]
    for bad in ("QuantumTorus(_commutation_matrix(j), GroundRing())", "qtorus.QuantumTorus(m)",
                "QuantumTorus(matrix=AntisymMatrix(rows))", "QuantumTorus(ring=r, matrix=m)"):
        assert _untilded_tori(ast.parse(bad)), bad
    for fine in ("QuantumTorus(tilde_q(q_matrix(d)), ring)", "QuantumTorus(qtorus.tilde_q(m))",
                 "QuantumTorus(ring=r, matrix=tilde_q(m))"):
        assert not _untilded_tori(ast.parse(fine)), fine


def _readers(tree: ast.AST, name: str) -> set[str]:
    """The top-level functions and classes that read ``name``, as a plain
    name or an attribute, whether they call it or pass it on."""
    return {
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            else getattr(node, "attr", None)) == name
    }


def test_one_twist_floor():
    # the Add bound is stated once, as the integer floors of
    # pants.twist_floors: the pants monoid, the rows of the global monoid
    # and the pants box read it, and no doubled bound comes back
    defined, readers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name in ("twist_floors", "add2", "parity_ok")]
        readers |= {f"{path.stem}.{name}" for name in _readers(tree, "twist_floors")}
    assert defined == ["pants.twist_floors"]
    assert readers == {"pants.lambda_contains", "surface.length_rule", "checks._pants_table"}
    for passed in ("def f(j):\n    return _BoxTable(j, 2, 2, functools.partial(pants.twist_floors, j))",
                   "def f(j):\n    return partial(twist_floors, j)", "def f(j, n):\n    return twist_floors(j, n)"):
        assert _readers(ast.parse(passed), "twist_floors") == {"f"}, passed


def _paragraph(readme: str, opening: str) -> str:
    return readme[readme.index(opening) :].split("\n\n", 1)[0]


def _module_caches() -> list[tuple[str, int | None]]:
    """(module.name, maxsize) of every module-level lru_cache."""
    caches = []
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        module = importlib.import_module(f"skeintor.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                caches.append((f"{path.stem}.{name}", value.cache_info().maxsize))
    return caches


def test_module_caches_are_bounded():
    # the README promises caches of fixed size
    caches = dict(_module_caches())
    unbounded = [name for name, maxsize in caches.items() if maxsize is None]
    assert caches and not unbounded, f"module-level caches without a maxsize: {unbounded}"


# The loops that multiply or translate per term, which must not pay for
# the coefficient store.
PRODUCT_LOOPS = {"ring.flat_mul", "ring.flat_accumulate", "qtorus.elem_mul", "qtorus._q_monomial_mul",
                 "qtorus.TorusElement.translate"}


def _callers(name: str) -> set[str]:
    """The package's functions and methods that call ``name``, as a plain
    name or an attribute (``module.function``, ``module.Class.method``)."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            for node in [top, *members]:
                if not isinstance(node, ast.FunctionDef):
                    continue
                qual = f"{top.name}.{node.name}" if node is not top else node.name
                if any(isinstance(n, ast.Call) and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
                       for n in ast.walk(node)):
                    found.add(f"{path.stem}.{qual}")
    return found


def test_kept_coefficients_go_through_the_bounded_store():
    # only the two pants trace caches and the glued cores pass what they
    # keep through the coefficient store, so no product loop pays for it
    feeders = _callers("shared")
    assert feeders == {"qtrace._shared_coefficients"}
    helper_callers = _callers("_shared_coefficients")
    assert helper_callers == {"qtrace._component_product", "qtrace._core_value", "surface.phi_value"}
    defined = {qual for qual, *_ in _definitions()}
    assert PRODUCT_LOOPS <= defined and not PRODUCT_LOOPS & (feeders | helper_callers)


# The entry points that take a component from a caller, built by them or
# passed in; decompose builds its components valid and checks none.
COMPONENT_CHECKS = {"pants.loop", "pants.cross", "pants.return_arc", "pants.nu_of_component"}


def test_pants_records_check_nothing_when_built():
    # a check in the records would run on every component of every
    # decomposition; they stay NamedTuples, whose hash and comparison
    # (the component product's cache key) run in C
    tree = ast.parse((PACKAGE / "pants.py").read_text())
    for record in (pants.ComponentSpec, pants.Decomposition):
        node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == record.__name__)
        assert [getattr(base, "id", None) for base in node.bases] == ["NamedTuple"]
        defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        assert not defined & {"__new__", "__init__", "__post_init__"}, record
        assert issubclass(record, tuple) and not hasattr(record, "__dataclass_fields__")
    assert _callers("_checked") == COMPONENT_CHECKS


def _kept_dicts() -> set[str]:
    """The cached_property dicts of DTDatum."""
    datum = standard_datum(0, 4)
    return {
        name for name, value in vars(DTDatum).items()
        if isinstance(value, cached_property) and isinstance(getattr(datum, name), dict)
    }


def _unbounded_kept_uses(tree: ast.AST, kept: set[str]) -> list[int]:
    """Lines where a kept dict, read as ``<x>.<name>``, as ``<name>`` or
    through a name bound to one, is used other than by a read (``.get``,
    a subscript load), as the first argument of ``keep`` (a plain name or
    ``ring.keep``) or in such a binding."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Attribute, ast.Name))
        and getattr(node.value, "attr", getattr(node.value, "id", None)) in kept
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in kept or isinstance(node, ast.Name) and node.id in kept | aliases:
            if not isinstance(node.ctx, ast.Load):
                continue
            up = parents[node]
            if (
                isinstance(up, ast.Attribute) and up.attr == "get"
                or isinstance(up, ast.Subscript) and up.value is node and isinstance(up.ctx, ast.Load)
                or isinstance(up, ast.Call) and "keep" in (getattr(up.func, "id", None), getattr(up.func, "attr", None))
                and up.args[:1] == [node]
                or isinstance(up, ast.Assign) and up.value is node and all(isinstance(t, ast.Name) for t in up.targets)
            ):
                continue
            lines.append(node.lineno)
    return lines


def test_kept_dicts_are_written_through_keep():
    # ring.keep bounds every kept dict, the two on a datum, the
    # coefficient store and the kept q-powers, and evicts its oldest entry
    # at ring.KEPT_MAX; a direct store, setdefault or update would let one
    # grow without it
    kept = _kept_dicts()
    assert kept == {"_cores", "_rows"}
    kept |= {"_shared", "_q_halves"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        stray += [f"{path.name}:{line}" for line in _unbounded_kept_uses(ast.parse(path.read_text()), kept)]
    assert not stray, f"a kept dict is written other than through ring.keep: {stray}"
    assert _callers("keep") == {"ring.shared", "ring.GroundRing.q_half", "surface.length_rule", "surface.phi_value"}
    helper = next(node for node in ast.parse((PACKAGE / "ring.py").read_text()).body
                  if getattr(node, "name", None) == "keep")
    assert any(isinstance(n, ast.Delete) for n in ast.walk(helper))
    assert any(getattr(n, "id", None) == "KEPT_MAX" for n in ast.walk(helper))
    bounds = [f"{path.stem}.{target.id}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text()).body if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in getattr(node, "targets", [getattr(node, "target", None)])
              if getattr(target, "id", "").endswith("_MAX")]
    assert bounds == ["ring.KEPT_MAX"], f"more than one bound on kept dicts: {bounds}"
    # the scan sees a direct store, setdefault, an update, an aliased
    # store and a write through the module, and passes the reads, the
    # stores through keep and the definition
    for bad in ("datum._rows[n] = row", "datum._cores.setdefault(k, v)",
                "def f(d):\n    shared = d._cores\n    shared.update(x)",
                "def f(d):\n    shared = d._cores\n    shared[x] = x",
                "def f(c):\n    _shared[c.ring, c] = c", "x = ring._shared.setdefault(k, v)",
                "def f(r, e):\n    _q_halves[r, e] = x", "ring._q_halves.update(x)"):
        assert _unbounded_kept_uses(ast.parse(bad), kept), bad
    for fine in ("_shared: dict = {}", "x = _shared.get(k)", "keep(_shared, k, c)", "keep(_q_halves, key, c)",
                 "ring.keep(datum._rows, n, row)", "row = datum._rows[n]"):
        assert not _unbounded_kept_uses(ast.parse(fine), kept), fine


def test_every_module_cache_is_in_the_readme():
    # the README's cache paragraph names each module-level lru_cache with
    # its size, and its paragraph on data kept on a datum names each
    # cached_property of DTDatum and each value a center computation
    # writes into a datum's instance dict, so a new cache, a resized one
    # or a new kept value must be documented
    readme = (ROOT / "README.md").read_text()
    paragraph = _paragraph(readme, "The module-level caches")
    caches = [f"`{name}` (`maxsize={maxsize}`)" for name, maxsize in _module_caches()]
    assert "`qtrace._component_product` (`maxsize=65536`)" in caches
    caches.append(f"`ring._shared` (`ring.KEPT_MAX={ring.KEPT_MAX}`)")
    caches.append(f"`ring._q_halves` (`ring.KEPT_MAX={ring.KEPT_MAX}`)")
    caches.append("`ring.keep`")
    missing = [c for c in caches if c not in paragraph]
    assert not missing, f"not in the README's cache paragraph: {missing}"
    kept = [f"`DTDatum.{name}`" for name, value in vars(DTDatum).items() if isinstance(value, cached_property)]
    assert "`DTDatum._cores`" in kept
    datum = standard_datum(0, 4)
    even_sublattice(datum)
    written = [f"`DTDatum.{name}`" for name in vars(datum) if name not in vars(DTDatum)]
    assert written == ["`DTDatum._center`"]
    kept += written
    paragraph = _paragraph(readme, "Data derived from a datum")
    missing = [k for k in kept if k not in paragraph]
    assert not missing, f"not in the README's paragraph on data kept on a datum: {missing}"


# Run in a fresh interpreter without site-packages: what importing the
# package and its command line loads, and the package's dataclasses.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import skeintor, skeintor.cli
package = [m for m in list(sys.modules) if m.partition(".")[0] == "skeintor"]
print(json.dumps({
    "modules": sorted(sys.modules),
    "dataclasses": [f"{m}.{name}" for m in package for name, value in vars(sys.modules[m]).items()
                    if isinstance(value, type) and hasattr(value, "__dataclass_fields__")],
}))
"""


def test_import_loads_only_the_standard_library():
    # the north star's stdlib-only rule; and the records are NamedTuples,
    # so no import generates dataclass methods or loads dataclasses and,
    # through it, inspect, ast, dis and tokenize
    out = subprocess.run([sys.executable, "-I", "-S", "-c", _IMPORT_PROBE, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    outside = [m for m in report["modules"] if m.partition(".")[0] not in ("skeintor", "__main__")]
    assert "argparse" in outside and "skeintor.cli" in report["modules"]
    assert [m for m in outside if m.partition(".")[0] not in sys.stdlib_module_names] == []
    assert not {"dataclasses", "inspect"} & set(outside)
    # fractions, and through it decimal and numbers, load with the first
    # rational solve only
    assert not {"fractions", "decimal", "numbers"} & set(outside)
    assert report["dataclasses"] == []


# One traced slice of a benchmark workload at seed 0, as perfbench/worker.py
# traces an episode: argv is the src and perfbench directories, the
# workload, the span file, and the wrapped entry points (module.attribute)
# to rebind to their bare functions after the wrappers go in, so that the
# program calls them unseen.
_TRACED_SLICE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import tracing, workloads
workload, spans, unseen = sys.argv[3], sys.argv[4], sys.argv[5:]
st = workloads.setup(workload, 0)
recorder = tracing.Recorder()
recorder.install(st.mods)
for target in unseen:
    mod, attr = target.split(".")
    wrapper = getattr(st.mods[mod], attr)
    for m in [m for n, m in sys.modules.items() if n.startswith("skeintor")]:
        for key, value in list(vars(m).items()):
            if value is wrapper:
                setattr(m, key, wrapper.__wrapped__)
op = recorder.wrap("bench.op", workloads.OPS[workload], after=lambda a, r, _: (0, r[1]))
failed = sum(not op(st, item)[0] for item in st.items[:150])
recorder.extra["core_cache"] = st.mods["qtrace"]._core_value.cache_info()._asdict()
recorder.write(spans)
problems = tracing.coverage_problems(workload, tracing.summarize(spans))
print(json.dumps({"failed": failed, "problems": problems}))
"""


@pytest.mark.parametrize("workload, unseen, zero", [
    ("glue", (), []),
    ("pants-traces", (), []),
    ("center", (), []),
    # negative control: face_split's membership test makes the only pants
    # call of a glue operation
    ("glue", ("pants.lambda_contains",), ["pants.calls is 0"]),
], ids=["glue", "pants-traces", "center", "glue-unseen-lambda_contains"])
def test_traced_layers_stay_seen(tmp_path, workload, unseen, zero):
    # a traced benchmark run fails when a layer its workload exercises
    # reads 0 (tracing.COVERAGE); this catches a program change that drops
    # or hides such a call, on 150 operations in a fresh interpreter.  The
    # share of benchmark code varies from run to run and is left to the
    # traced runs themselves.
    spans = tmp_path / f"{workload}.spans"
    argv = [str(ROOT / "src"), str(ROOT / "perfbench"), workload, str(spans), *unseen]
    out = subprocess.run([sys.executable, "-I", "-c", _TRACED_SLICE, *argv],
                         capture_output=True, text=True, check=True)
    report = json.loads(out.stdout)
    assert report["failed"] == 0
    assert [p for p in report["problems"] if p.endswith(" is 0")] == zero
