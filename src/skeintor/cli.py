"""Command-line front end.

Four subcommands:

* ``analyze``  -- center/PI-degree lattice report for one surface and root order.
* ``coords``   -- membership, degree vector and face splitting of a coordinate.
* ``trace``    -- quantum trace of a coordinate (single pants or glued surface).
* ``check``    -- run the verification suites over a parameter grid.

Output is deterministic for fixed flags and seed; ``--format json``
emits a stable machine-readable report.  The exit code is zero exactly
when every verdict the invocation requested passed, 1 when one failed,
and 2 for bad input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import checks
from .arith import (
    RootOfUnity,
    even_sublattice,
    kernel_lattice,
    kernel_target,
    lambda_hat,
    lattice_index,
    pi_degree,
)
from .pants import decompose
from .qtrace import check_thmbtr, lead_violation, pants_degree, trace_torus, utr_coord
from .qtorus import TorusElement
from .ring import GroundElem
from .surface import (
    DTDatum,
    d_embed,
    face_split,
    glued_key,
    lambda_membership,
    phi_value,
    q_matrix,
    standard_datum,
    surface_torus,
)


def _load_datum(args) -> DTDatum:
    if getattr(args, "datum", None):
        with open(args.datum, "r", encoding="utf-8") as fh:
            return DTDatum.from_json(fh.read())
    if args.genus is None or args.punctures is None:
        raise ValueError("either --datum or both --genus and --punctures are required")
    return standard_datum(args.genus, args.punctures)


# An integer on the command line: an optional sign and ASCII digits, with
# spaces around it.  int() alone also reads underscores and other scripts'
# digits, so every integer the CLI takes is matched against this first.
_ENTRY = re.compile(r"\s*[+-]?[0-9]+\s*")


def _parse_coord(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; an entry that is not an
    ``_ENTRY`` (an empty one, an underscore, another script's digits) is
    an error."""
    entries = text.split(",")
    if not all(_ENTRY.fullmatch(x) for x in entries):
        raise ValueError(f"cannot parse coordinate list {text!r}")
    return tuple(int(x) for x in entries)


def _int_option(text: str) -> int:
    """The value of an integer option, by the ``_ENTRY`` rule; argparse
    turns the error into its usage message and exit code 2."""
    if not _ENTRY.fullmatch(text):
        raise argparse.ArgumentTypeError(f"cannot parse integer {text!r}")
    return int(text)


def _format_coeff(c: GroundElem) -> str:
    symbols = c.ring.symbols
    parts = []
    for key, coeff in sorted(c.items()):
        factors = []
        if abs(coeff) != 1:
            factors.append(str(abs(coeff)))
        for sym, e in zip(symbols, key[:-1]):
            if e:
                factors.append(sym if e == 1 else f"{sym}^{e}")
        h = key[-1]
        if h:
            factors.append(f"q^{h // 2}" if h % 2 == 0 else f"q^{h}/2")
        body = "*".join(factors) if factors else "1"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _element_dict(e: TorusElement) -> list[dict]:
    return [
        {"exponent": list(k), "coeff": _format_coeff(e.terms[k])}
        for k in sorted(e.terms, reverse=True)
    ]


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {_flat(v)}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    walk(v, indent)
                    print()
                else:
                    print(f"{pad}- {_flat(v)}")
    walk(report)


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return v


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    datum = _load_datum(args)
    root = RootOfUnity(args.xi_order)
    g, m = datum.graph.genus, datum.graph.punctures
    span = lambda_hat(datum)
    even = even_sublattice(datum)
    kernel = kernel_lattice(datum, root.n)
    index = lattice_index(kernel, span)
    degree = pi_degree(g, m, root)
    kernel_ok = kernel == kernel_target(datum, root)
    index_ok = index == degree * degree
    report = {
        "surface": {"genus": g, "punctures": m, "r": datum.r},
        "root": {
            "order": root.n,
            "order_xi2": root.n1,
            "order_xi4": root.big_n,
            "epsilon": root.epsilon_class,
        },
        "q_matrix": [list(r) for r in q_matrix(datum).rows],
        "tilde_q": [list(r) for r in surface_torus(datum).matrix.rows],
        "lambda_hat": [list(c) for c in span.columns],
        "even_sublattice": [list(c) for c in even.columns],
        "even_index": lattice_index(even, span),
        "kernel_lattice": [list(c) for c in kernel.columns],
        "kernel_index": index,
        "pi_degree": degree,
        "verdicts": {
            "kernel_equals_scaled_span": "PASS" if kernel_ok else "FAIL",
            "index_equals_pi_degree_squared": "PASS" if index_ok else "FAIL",
        },
    }
    _emit(report, args.format)
    return 0 if kernel_ok and index_ok else 1


def cmd_coords(args) -> int:
    datum = _load_datum(args)
    coord = _parse_coord(args.coord)
    member, why = lambda_membership(datum, coord)
    report = {
        "surface": {"genus": datum.graph.genus, "punctures": datum.graph.punctures, "r": datum.r},
        "coord": list(coord),
        "member": member,
    }
    if not member:
        report["witness"] = why
    else:
        report["degree_vector"] = list(d_embed(datum, coord))
        faces = []
        for v, (j, face_coord) in enumerate(face_split(datum, coord)):
            dec = decompose(j, face_coord)
            faces.append(
                {
                    "face": v,
                    "type": j,
                    "coord": list(face_coord),
                    "components": [
                        {
                            "kind": c.kind,
                            "boundaries": list(c.boundaries),
                            "twists": list(c.twists),
                            "multiplicity": c.multiplicity,
                        }
                        for c in dec.components
                    ],
                    "residual_twists": list(dec.twists),
                }
            )
        report["faces"] = faces
    _emit(report, args.format)
    return 0


def cmd_trace(args) -> int:
    coord = _parse_coord(args.coord)
    if args.pants:
        tt = trace_torus(args.pants)
        value = utr_coord(tt, coord)
        rep = check_thmbtr(tt, coord)
        report = {
            "pants": args.pants,
            "coord": list(coord),
            "value": _element_dict(value),
            "degrees": {
                str(list(k)): list(pants_degree(args.pants, k)) for k in sorted(value.terms)
            },
            "checks": {
                "grading": "PASS" if rep.grading_ok else "FAIL",
                "twist": "PASS" if rep.twist_ok else "FAIL",
                "lead": "PASS" if rep.lead_ok else "FAIL",
                "reflection": "PASS" if rep.reflection_ok else "FAIL",
            },
        }
        if rep.violations:
            report["violations"] = rep.violations
        _emit(report, args.format)
        return 0 if rep.ok else 1

    datum = _load_datum(args)
    value = phi_value(datum, coord)  # raises ValueError off the monoid
    violation = lead_violation(coord, value, datum.r, glued_key(datum.r))
    face_reports = []
    all_ok = violation is None
    for v, (j, face_coord) in enumerate(face_split(datum, coord)):
        rep = check_thmbtr(trace_torus(j), face_coord)
        all_ok = all_ok and rep.ok
        face_reports.append(
            {"face": v, "type": j, "coord": list(face_coord), "ok": rep.ok}
        )
    report = {
        "surface": {"genus": datum.graph.genus, "punctures": datum.graph.punctures, "r": datum.r},
        "coord": list(coord),
        "lead_exponent": list(coord),
        "value": _element_dict(value),
        "face_checks": face_reports,
        "verdicts": {"lead_equals_coord": "PASS" if violation is None else "FAIL"},
    }
    if violation:  # no unique lead at the coordinate: the reason replaces it
        del report["lead_exponent"]
        report["violations"] = [violation]
    _emit(report, args.format)
    return 0 if all_ok else 1


# --grid keys and the run_all parameters they set
_GRID_KEYS = {"rmax": "rmax", "nmax": "nmax", "leadbox": "lead_box", "tracebox": "trace_box",
              "pairs": "pairs", "monopairs": "mono_pairs"}


def _parse_grid(spec: str) -> dict[str, int]:
    """run_all keyword arguments from a ``key=value,...`` grid; unknown
    or repeated keys, a value that is not an ``_ENTRY`` and sizes below 1
    are errors."""
    out: dict[str, int] = {}
    for piece in filter(None, spec.split(",")):
        key, _, val = piece.partition("=")
        key = key.strip()
        if key not in _GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r}; known keys: {', '.join(_GRID_KEYS)}")
        if _GRID_KEYS[key] in out:
            raise ValueError(f"grid key {key!r} given more than once")
        if not _ENTRY.fullmatch(val):
            raise ValueError(f"cannot parse grid entry {piece!r}")
        value = int(val)
        if value < 1:
            raise ValueError(f"grid entry {piece!r} must be at least 1")
        out[_GRID_KEYS[key]] = value
    return out


def cmd_check(args) -> int:
    results = checks.run_all(
        seed=args.seed, corrupt_qtilde=args.corrupt_qtilde, **_parse_grid(args.grid)
    )
    if args.format == "json":
        rows = []
        for r in results:
            row = {
                "name": r.name,
                "verdict": "PASS" if r.passed else "FAIL",
                "checked": r.checked,
                "detail": {k: str(v) for k, v in r.detail.items()},
            }
            if args.timings:
                row["elapsed"] = round(r.elapsed, 3)
            rows.append(row)
        print(json.dumps(rows, indent=2))
    else:
        for r in results:
            print(r.summary(timings=args.timings))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeintor",
        description="Exact Dehn-Thurston / quantum-torus computations for sliced skein algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_xi=False):
        p.add_argument("--genus", type=_int_option, default=None)
        p.add_argument("--punctures", type=_int_option, default=None)
        p.add_argument("--datum", type=str, default=None, help="JSON datum file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if need_xi:
            p.add_argument("--xi-order", type=_int_option, required=True, dest="xi_order")

    p = sub.add_parser("analyze", help="center and PI-degree lattice report")
    common(p, need_xi=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coords", help="coordinate membership and face splitting")
    common(p)
    p.add_argument("--coord", type=str, required=True, help="comma-separated integers")
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("trace", help="quantum trace values and property checks")
    common(p)
    p.add_argument("--coord", type=str, required=True)
    p.add_argument("--pants", type=_int_option, choices=(1, 2, 3), default=None,
                   help="single pants mode: trace on the given pants type")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("check", help="run the verification suites")
    p.add_argument("--grid", type=str, default="",
                   help='e.g. "rmax=4,nmax=12,pairs=10000,leadbox=4,tracebox=6"')
    p.add_argument("--seed", type=_int_option, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--corrupt-qtilde", action="store_true", dest="corrupt_qtilde",
                   help="negative control: corrupt the doubled form and expect a failure")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock times (breaks output determinism)")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
