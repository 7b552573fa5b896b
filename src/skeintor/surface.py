"""Global pants-decomposition data and the degeneration into a quantum torus.

A surface is presented by its DT-datum: an embedded trivalent fatgraph
whose vertices are the faces of a pants decomposition (one per pair of
pants), whose internal edges are the decomposition curves, and whose
legs are the punctures.  Vertices carry the counterclockwise cyclic
order of their half-edges and a slot assignment identifying each face
with a standard pair of pants.

Global coordinates are flat tuples ``(n_1..n_r, t_1..t_r)`` indexed by
the curves in their fixed numbering.  The module computes the
commutation matrix of the associated quantum torus from corner counts
of the fatgraph, splits global coordinates into per-face ones, and
evaluates the gluing of the per-face quantum traces, whose unique top
term recovers the coordinate.

The surface torus and the pants tori are ``qtorus.tilde_q`` of their
x-blocks, [[Q, -2I], [2I, 0]] (u_c x_c = q^2 x_c u_c), and the corner
counts sum the faces' x-blocks, so gluing takes products to products.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import pants
from .pants import Coord, base_twists, split_nt
from .qtorus import AntisymMatrix, QuantumTorus, TorusElement, tilde_q
from .qtrace import _shared_coefficients, trace_torus, utr_coord
from .ring import GroundElem, GroundRing, _checked_make, _no_rebinding, flat_accumulate, keep


_EXCLUDED = {(1, 0), (1, 1)}


def surface_excluded(g: int, m: int) -> bool:
    return g < 0 or m < 0 or (g, m) in _EXCLUDED or (g == 0 and m <= 3)


# ---------------------------------------------------------------------------
# fatgraph and DT-datum


class _FatGraphFields(NamedTuple):
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    legs: tuple[int, ...]


class FatGraph(_FatGraphFields):
    """Embedded trivalent graph: cyclic orders, edge pairing, legs.

    ``vertices[v]`` lists the half-edge ids at vertex ``v`` in
    counterclockwise order.  ``edges[c]`` is the pair of half-edges of
    curve ``c``; ``legs`` are the unpaired half-edges (punctures).  The
    fields are copied into tuples, so a caller's lists cannot change it.
    """

    def __new__(cls, vertices, edges, legs):
        self = tuple.__new__(cls, (tuple(map(tuple, vertices)), tuple(map(tuple, edges)), tuple(legs)))
        seen: dict[int, int] = {}
        for v, hes in enumerate(self.vertices):
            if len(hes) != 3:
                raise ValueError("every vertex must be trivalent")
            for h in hes:
                if h in seen:
                    raise ValueError(f"half-edge {h} appears twice")
                seen[h] = v
        paired = set()
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1] or e[0] not in seen or e[1] not in seen:
                raise ValueError("edges must pair distinct existing half-edges")
            paired.update(e)
        if len(paired) != 2 * len(self.edges):
            raise ValueError("a half-edge may belong to only one edge")
        for h in self.legs:
            if h not in seen or h in paired:
                raise ValueError("legs must be existing unpaired half-edges")
        if paired | set(self.legs) != set(seen):
            raise ValueError("every half-edge must be an edge side or a leg")
        if self.genus < 0 or (2 + len(self.vertices) - len(self.legs)) % 2:
            raise ValueError("fatgraph does not close up to an orientable surface")
        if self.r < 1:
            raise ValueError("at least one decomposition curve is required")
        nbrs: dict[int, set[int]] = {v: set() for v in range(len(self.vertices))}
        for h1, h2 in self.edges:
            nbrs[seen[h1]].add(seen[h2])
            nbrs[seen[h2]].add(seen[h1])
        reached, stack = {0}, [0]
        while stack:
            for w in nbrs[stack.pop()] - reached:
                reached.add(w)
                stack.append(w)
        if len(reached) != len(self.vertices):
            raise ValueError("fatgraph must be connected")
        return self

    __setattr__ = __delattr__ = _no_rebinding
    _make = _checked_make

    @property
    def r(self) -> int:
        return len(self.edges)

    @property
    def punctures(self) -> int:
        return len(self.legs)

    @property
    def genus(self) -> int:
        return (2 + len(self.vertices) - len(self.legs)) // 2

    @cached_property
    def he_curve(self) -> Mapping[int, int]:
        """The curve of every paired half-edge, read-only; legs are absent."""
        return MappingProxyType({h: c for c, pair in enumerate(self.edges) for h in pair})


class DTDatum:
    """Fatgraph plus the slot assignment of every face.

    ``slots[v]`` orders the half-edges of vertex ``v`` by boundary slot:
    three internal half-edges for a three-holed face, two internal then
    the leg for a two-holed face, one internal then the two legs for a
    one-holed face.  Numbering condition: in every two-holed face the
    curve at the second slot strictly precedes the curve at the first.
    The slots are copied into tuples, as the fatgraph's fields are.

    A plain class rather than a NamedTuple, which cannot be weakly
    referenced: a weak reference shows that a dropped datum goes.
    """

    __slots__ = ("graph", "slots", "__dict__", "__weakref__")

    def __init__(self, graph: FatGraph, slots: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "slots", tuple(map(tuple, slots)))
        g = graph
        if len(self.slots) != len(g.vertices):
            raise ValueError("one slot tuple per vertex required")
        legset = set(g.legs)
        for v, sl in enumerate(self.slots):
            if sorted(sl) != sorted(g.vertices[v]):
                raise ValueError(f"slots of vertex {v} must permute its half-edges")
            nlegs = sum(1 for h in sl if h in legset)
            j = 3 - nlegs
            if j < 1:
                raise ValueError("a face needs at least one boundary curve")
            if any(h in legset for h in sl[:j]) or any(h not in legset for h in sl[j:]):
                raise ValueError(f"legs of vertex {v} must fill the trailing slots")
            if j == 2:
                c2 = g.he_curve[sl[1]]
                c1 = g.he_curve[sl[0]]
                if not c2 < c1:
                    raise ValueError(
                        f"two-holed face {v}: curve {c2} at the second slot must "
                        f"precede curve {c1} at the first"
                    )

    __setattr__ = __delattr__ = _no_rebinding

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph, self.slots) == (other.graph, other.slots)

    def __hash__(self):
        return hash((self.graph, self.slots))

    def __repr__(self):
        return f"DTDatum(graph={self.graph!r}, slots={self.slots!r})"

    @cached_property
    def r(self) -> int:
        """The number of curves, kept on the instance: every coordinate
        split and degree vector reads it."""
        return self.graph.r

    def face_type(self, v: int) -> int:
        legset = set(self.graph.legs)
        return 3 - sum(1 for h in self.slots[v] if h in legset)

    # -- derived incidence tables and surface torus (built on first use, kept
    # on the instance)

    @cached_property
    def _tables(self) -> "_Tables":
        return _datum_tables(self)

    @cached_property
    def _torus(self) -> QuantumTorus:
        return QuantumTorus(tilde_q(q_matrix(self)), GroundRing(self._tables.symbols))

    # the glued core traces behind phi_value; a plain dict, which holds
    # nothing of the datum
    @cached_property
    def _cores(self) -> dict[Coord, TorusElement]:
        return {}

    # the row of each length vector (see length_rule), a plain dict as well
    @cached_property
    def _rows(self) -> dict[tuple[int, ...], tuple[str, tuple[int | None, ...]]]:
        return {}

    def to_dict(self) -> dict:
        return {
            "vertices": [list(v) for v in self.graph.vertices],
            "edges": [list(e) for e in self.graph.edges],
            "legs": list(self.graph.legs),
            "slots": [list(s) for s in self.slots],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(d: dict) -> "DTDatum":
        """Build a datum from its ``to_dict`` form; malformed input raises
        ValueError naming the missing key or the wrong type."""
        if not isinstance(d, dict):
            raise ValueError(f"a datum must be a JSON object, not {type(d).__name__}")
        for key in ("vertices", "edges", "legs", "slots"):
            if key not in d:
                raise ValueError(f"datum is missing the key {key!r}")
            if not isinstance(d[key], list):
                raise ValueError(f"datum key {key!r} must be a list, not {type(d[key]).__name__}")
        try:
            for h in chain(d["legs"], *d["vertices"], *d["edges"], *d["slots"]):
                if type(h) is not int:
                    import reprlib  # only on the error path
                    raise ValueError(f"half-edge ids must be integers, not {reprlib.repr(h)}")
            return DTDatum(FatGraph(d["vertices"], d["edges"], d["legs"]), d["slots"])
        except TypeError as exc:
            raise ValueError(f"malformed datum: {exc}") from None

    @staticmethod
    def from_json(text: str) -> "DTDatum":
        try:
            return DTDatum.from_dict(json.loads(text))
        except RecursionError:  # the JSON decoder recurses once per nesting level
            raise ValueError("datum nesting is too deep") from None


class _Tables(NamedTuple):
    face_types: tuple[int, ...]
    face_curves: tuple[tuple[int, ...], ...]       # per face: curve at each boundary slot
    sides: tuple[tuple[tuple[int, int], tuple[int, int]], ...]  # per curve: ((v,slot) primary, secondary)
    symbols: tuple[str, ...]                        # global puncture symbols, by sorted leg id
    leg_symbol_index: Mapping[int, int]             # read-only, like FatGraph.he_curve


def _datum_tables(datum: DTDatum) -> _Tables:
    g = datum.graph
    face_types = tuple(datum.face_type(v) for v in range(len(g.vertices)))
    face_curves = tuple(
        tuple(g.he_curve[h] for h in datum.slots[v][: face_types[v]])
        for v in range(len(g.vertices))
    )
    incidences: dict[int, list[tuple[int, int]]] = {c: [] for c in range(g.r)}
    for v in range(len(g.vertices)):
        for s in range(face_types[v]):
            incidences[face_curves[v][s]].append((v, s))
    sides = []
    for c in range(g.r):
        inc = incidences[c]
        if len(inc) != 2:
            raise ValueError(f"curve {c} must bound exactly two face slots")
        inc.sort(key=lambda vs: (vs[1], vs[0]))
        sides.append((inc[0], inc[1]))
    sorted_legs = tuple(sorted(g.legs))
    symbols = tuple(f"v{i + 1}" for i in range(len(sorted_legs)))
    leg_symbol_index = MappingProxyType({h: i for i, h in enumerate(sorted_legs)})
    return _Tables(face_types, face_curves, tuple(sides), symbols, leg_symbol_index)


# ---------------------------------------------------------------------------
# the standard datum


def standard_datum(g: int, m: int) -> DTDatum:
    """The fixed chain-style datum for the surface of genus g with m punctures.

    Genus zero is a chain of two one-holed end faces with two-holed
    faces between them; genus one is a ring of two-holed faces; higher
    genus uses a necklace of three-holed faces (the theta graph for
    genus two) with the punctured faces spliced into the first curve.
    Deterministic, and satisfies the curve-numbering condition.
    """
    if surface_excluded(g, m):
        raise ValueError(f"excluded surface (g, m) = ({g}, {m})")

    # faces: list of (kind, curve indices by boundary slot)
    faces: list[tuple[int, tuple[int, ...]]] = []
    if g == 0:
        r = m - 3
        faces.append((1, (0,)))
        for i in range(m - 4):
            faces.append((2, (i + 1, i)))
        faces.append((1, (r - 1,)))
    elif g == 1:
        r = m
        for i in range(m):
            a, b = i, (i + 1) % m
            faces.append((2, (max(a, b), min(a, b))))
    else:
        nf = 2 * g - 2
        # chain curves first, then the remaining cycle curves, then the pair curves
        chain = list(range(m + 1)) if m else [0]
        cycle = {0: chain}
        nxt = (m + 1) if m else 1
        for i in range(1, nf):
            cycle[i] = [nxt]
            nxt += 1
        extra = {}
        for jj in range(g - 1):
            extra[jj] = nxt
            nxt += 1
        r = nxt
        core: list[list[int]] = [[] for _ in range(nf)]
        for i in range(nf):
            core[i].append(cycle[(i - 1) % nf][-1])   # edge arriving from the previous face
            core[i].append(cycle[i][0])               # edge leaving to the next face
        for jj in range(g - 1):
            core[2 * jj].append(extra[jj])
            core[2 * jj + 1].append(extra[jj])
        for i in range(nf):
            faces.append((3, tuple(sorted(core[i]))))
        for k in range(m):
            faces.append((2, (chain[k + 1], chain[k])))

    # materialize half-edges
    next_he = 0
    vertices: list[tuple[int, ...]] = []
    slots: list[tuple[int, ...]] = []
    edge_ends: dict[int, list[int]] = {c: [] for c in range(r)}
    legs: list[int] = []
    for kind, curves in faces:
        hes = []
        for c in curves:
            edge_ends[c].append(next_he)
            hes.append(next_he)
            next_he += 1
        for _ in range(3 - kind):
            legs.append(next_he)
            hes.append(next_he)
            next_he += 1
        slots.append(tuple(hes))
        if kind == 1:
            vertices.append((hes[0], hes[1], hes[2]))
        else:
            ccw = [hes[1], hes[0]] + hes[2:]
            vertices.append(tuple(ccw))

    edges = tuple((edge_ends[c][0], edge_ends[c][1]) for c in range(r))
    return DTDatum(FatGraph(tuple(vertices), edges, tuple(legs)), tuple(slots))


# ---------------------------------------------------------------------------
# the commutation matrices


def q_matrix(datum: DTDatum) -> AntisymMatrix:
    """Signed corner counts of the dual graph.

    At every vertex, each pair of cyclically consecutive half-edges
    (h, h') with h' following h counterclockwise adds +1 to the entry of
    (curve of h, curve of h') and -1 to the transpose.  Legs contribute
    nothing.  The counterclockwise convention is the frozen embedding
    convention of this package.
    """
    g = datum.graph
    rows = [[0] * g.r for _ in range(g.r)]
    for hes in g.vertices:
        for i in range(3):
            a = g.he_curve.get(hes[i])
            b = g.he_curve.get(hes[(i + 1) % 3])
            if a is not None and b is not None and a != b:
                rows[a][b] += 1
                rows[b][a] -= 1
    return AntisymMatrix(rows)


def surface_torus(datum: DTDatum) -> QuantumTorus:
    """The quantum torus the graded skein algebra degenerates into, on
    ``tilde_q(q_matrix(datum))``, built once per datum instance and kept
    on it: every reader of the doubled form reads its ``matrix``."""
    return datum._torus


# ---------------------------------------------------------------------------
# the global coordinate monoid and its order


def _face_lengths(tb: _Tables, n: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [tuple(map(n.__getitem__, curves)) for curves in tb.face_curves]


def length_rule(datum: DTDatum, n: tuple[int, ...]) -> tuple[str, tuple[int | None, ...]]:
    """The row of the non-negative lengths ``n``, what they ask of a
    coordinate: the witness of the first face with an odd boundary sum
    ("" when there is none), and a tuple of the integer twist floor per
    curve where ``n`` misses it (the sum of the ``pants.twist_floors`` of
    its two sides), None where it meets it, empty when a face is odd.
    The datum keeps the row (``DTDatum._rows``), so a later call returns
    the same pair; this is the one reader and filler of the rows."""
    row = datum._rows.get(n)
    if row is not None:
        return row
    tb = datum._tables
    face_floors = []
    for v, face_n in enumerate(_face_lengths(tb, n)):
        floors = pants.twist_floors(tb.face_types[v], face_n)
        if floors is None:
            return keep(datum._rows, n, (f"odd boundary sum {face_n} at face {v}", ()))
        face_floors.append(floors)
    return keep(datum._rows, n, ("", tuple(
        None if x else face_floors[v1][s1] + face_floors[v2][s2]
        for x, ((v1, s1), (v2, s2)) in zip(n, tb.sides))))


def lambda_membership(datum: DTDatum, coord: Coord) -> tuple[bool, str]:
    """Membership in the global coordinate monoid, with a witness reason;
    the face parities and twist floors are read from the row of the
    lengths (:func:`length_rule`)."""
    n, t = split_nt(datum.r, coord)
    if min(n) < 0:
        return False, "negative length coordinate"
    odd, floors = length_rule(datum, n)
    if odd:
        return False, odd
    for c, floor in enumerate(floors):
        if floor is not None and t[c] < floor:
            # the witness writes the floor over 2, the form the CLI reports print
            return False, f"twist {t[c]} at curve {c} below bound {2 * floor}/2"
    return True, ""


def lambda_global(datum: DTDatum, coord: Coord) -> bool:
    return lambda_membership(datum, coord)[0]


def d_embed(datum: DTDatum, coord: Coord) -> tuple[int, ...]:
    """The injective degree vector ordering global coordinates.

    Total length and twist first, then all but the last twist and all
    but the last length; compared lexicographically.
    """
    n, t = split_nt(datum.r, coord)
    return (sum(n), sum(t)) + t[:-1] + n[:-1]


def glued_key(r: int):
    """The twist part of :func:`d_embed` on ``r`` curves, the twist sum and
    then all but the last twist: the order of ``d_embed`` on the terms of
    a glued trace or a product of them, whose lengths are all the same
    (the key ``qtrace.lead_violation`` takes)."""
    return lambda k: (sum(k[r:]),) + k[r:-1]


# ---------------------------------------------------------------------------
# splitting a coordinate into faces


def face_split(datum: DTDatum, coord: Coord, secondary: bool = False) -> list[tuple[int, Coord]]:
    """Canonical per-face coordinates matching a global coordinate.

    Per-face lengths restrict the global ones; per-face twists are the
    canonical base twists of each face with the whole residual twist of
    each curve placed on its primary side (the side with the smaller
    slot index, ties to the smaller face index).  Any other placement
    differs by twist moves and produces the same glued trace;
    ``secondary`` selects the opposite placement, which the tests use to
    confirm that.
    """
    ok, why = lambda_membership(datum, coord)
    if not ok:
        raise ValueError(f"coordinate not in the monoid: {why}")
    n, t = split_nt(datum.r, coord)
    tb = datum._tables
    lengths = _face_lengths(tb, n)
    bases = [base_twists(tb.face_types[v], lengths[v]) for v in range(len(lengths))]
    twists = [list(b) for b in bases]
    for c in range(datum.r):
        (v1, s1), (v2, s2) = tb.sides[c]
        residual = t[c] - bases[v1][s1] - bases[v2][s2]
        if secondary:
            twists[v2][s2] += residual
        else:
            twists[v1][s1] += residual
    out = []
    for v in range(len(lengths)):
        j = tb.face_types[v]
        face_coord = lengths[v] + tuple(twists[v])
        if not pants.lambda_contains(j, face_coord):
            raise AssertionError(f"face {v} coordinate {face_coord} left its monoid")
        out.append((j, face_coord))
    return out


# ---------------------------------------------------------------------------
# the glued trace and its top term


def _inject_coeff(
    mapping: tuple[int, ...], nsym: int, coeff: GroundElem
) -> list[tuple[tuple[int, ...], int]]:
    """Reindex a face coefficient's terms into the global ground ring.

    ``mapping[i]`` is the global symbol position of the face's i-th
    local symbol; ``nsym`` is the number of global symbols.
    """
    out = []
    for key, c in coeff.items():
        exps = [0] * nsym
        for i, e in enumerate(key[:-1]):
            if e:
                exps[mapping[i]] = e
        out.append((tuple(exps) + (key[-1],), c))
    return out


def project_faces(datum: DTDatum, n: tuple[int, ...], values: list[TorusElement]) -> TorusElement:
    """The gluing of one value per face, in face order, whose x-degrees
    are the face lengths of ``n``: every tensor monomial projects, the
    u-exponents of the two sides of each curve adding up to the twist
    exponent and ``n`` becoming the length exponent.  The projection of
    face-by-face products is the product of the projections (see the
    module docstring).  Coefficients accumulate as integers, one
    ``ring.flat_accumulate`` per face, and become coefficients once, in
    ``QuantumTorus.from_flat``, as in ``elem_mul``."""
    r = datum.r
    tb = datum._tables
    torus = surface_torus(datum)
    nsym = torus.ring.nsym

    acc: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {(0,) * r: {(0,) * (nsym + 1): 1}}
    for v, value in enumerate(values):
        j = tb.face_types[v]
        curves = tb.face_curves[v]
        sym_map = tuple(tb.leg_symbol_index[leg] for leg in datum.slots[v][j:])
        face_terms = []
        for k, c in value.terms.items():
            contrib = [0] * r
            for s in range(j):
                contrib[curves[s]] += k[j + s]
            face_terms.append((tuple(contrib), _inject_coeff(sym_map, nsym, c)))
        acc = flat_accumulate({}, [(t, c.items()) for t, c in acc.items()], face_terms)
    return torus.from_flat({n + t: c for t, c in acc.items()})


def _glue(datum: DTDatum, coord: Coord, secondary: bool) -> TorusElement:
    """The glued trace of ``coord``: the projection of its face traces."""
    values = [utr_coord(trace_torus(j), c) for j, c in face_split(datum, coord, secondary=secondary)]
    return project_faces(datum, tuple(coord[: datum.r]), values)


def phi_value(datum: DTDatum, coord: Coord) -> TorusElement:
    """Glue the per-face traces and project onto the surface torus.

    The datum keeps the glued trace of each core (``DTDatum._cores``,
    written through ``ring.keep``): the lengths together with the twists
    at the curves of length 0, the twists at the other curves set to 0.
    A core is always in the monoid, since a curve the multicurve meets
    has no twist bound.  The value of a coordinate is its core's,
    translated by its twists at the curves it meets, as ``utr_coord``
    translates a pants core.  That is exact: ``face_split`` puts such a
    twist on the primary face, where ``utr_coord`` applies it as a
    translation of the face's u-exponents, and gluing adds the faces'
    u-exponents, so the glued value moves by the same vector.  A kept
    core is a read-only ``TorusElement`` whose coefficients come from
    ``ring.shared``, so equal ones in one ring are one object across the
    glued cores and the pants traces; a core coordinate returns it itself.

    Membership is tested on every call, reading the row of the lengths
    (:func:`length_rule`).
    """
    r = datum.r
    n, t = split_nt(r, coord)
    ok, why = lambda_membership(datum, coord)
    if not ok:
        raise ValueError(f"coordinate not in the monoid: {why}")
    shift = tuple(y if x else 0 for x, y in zip(n, t))
    core = n + tuple(0 if x else y for x, y in zip(n, t))
    kept = datum._cores.get(core)
    if kept is None:
        kept = keep(datum._cores, core, _shared_coefficients(_glue(datum, core, False)))
    return kept.translate((0,) * r + shift)

