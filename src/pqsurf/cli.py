"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 validation error (the message names
the violated invariant), 4 search exhaustion without a witness, 5 reference
table mismatch, 6 search space too large, 7 internal inconsistency (an
internal certificate failed).

``main(argv)`` may be called repeatedly in one interpreter: it builds its
argparse parser on the first call and reuses it, and it resolves
``sys.stdout`` and ``sys.stderr`` at call time, so redirecting them around
a call captures its output, usage and error messages included.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .analysis import analyze_pair, render_text, to_json
from .catalog import ROWS, TableRow, row_by_name, row_witnesses, select_pair
from .covering import search_generating_vectors
from .descfile import (
    SurfaceDescription,
    build_explicit_vector,
    parse_description,
    resolve_group,
    _split_ints,
)
from .errors import (
    InternalInconsistency,
    NoWitness,
    ParseError,
    PqsurfError,
    SearchSpaceTooLarge,
)
from .groups import catalog_group

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_WITNESS = 4
EXIT_MISMATCH = 5
EXIT_SEARCH_SPACE = 6
EXIT_INTERNAL = 7

# error class -> exit code; any other PqsurfError exits EXIT_VALIDATION
EXIT_CODES = {
    ParseError: EXIT_PARSE,
    SearchSpaceTooLarge: EXIT_SEARCH_SPACE,
    NoWitness: EXIT_NO_WITNESS,
    InternalInconsistency: EXIT_INTERNAL,
}


def _curve_vectors(curve, group):
    if curve.is_search:
        return search_generating_vectors(group, curve.genus0, curve.search)
    return (build_explicit_vector(curve, group),)


def _analysis_from_description(desc: SurfaceDescription) -> dict:
    group = resolve_group(desc.group)
    vectors1 = _curve_vectors(desc.curve1, group)
    vectors2 = _curve_vectors(desc.curve2, group)
    gv1, gv2 = select_pair(vectors1, vectors2)
    aux = None
    if desc.aux is not None:
        aux_group_spec, aux_curve = desc.aux
        aux_vectors = _curve_vectors(aux_curve, resolve_group(aux_group_spec))
        if not aux_vectors:
            raise NoWitness("aux search produced no generating vector")
        aux = (aux_group_spec.label(), aux_vectors[0])
    return analyze_pair(gv1, gv2, group_label=desc.group.label(), aux=aux)


def cmd_analyze(args) -> int:
    desc = parse_description(args.path)
    doc = _analysis_from_description(desc)
    doc["input"] = desc.text
    fmt = args.format or desc.output_format
    sys.stdout.write(to_json(doc) if fmt == "json" else render_text(doc))
    return EXIT_OK


# -- table reproduction -------------------------------------------------------

def _nontrivial_dn(curve: dict) -> tuple[tuple[int, int], ...]:
    return tuple(
        sorted(
            (f["d"], f["n"])
            for f in curve["isotypical_factors"]
            if f["rational_char"] != 0 and f["d"] > 0
        )
    )


def _check_row(row: TableRow) -> dict:
    gv1, gv2 = row_witnesses(row.name)
    doc = analyze_pair(gv1, gv2, group_label=row.group_name)
    surf, curves, pairing = doc["surface"], doc["curves"], doc["pairing"]
    computed_sing = tuple((s["n"], s["q"]) for s in surf["singularities"])
    jac1, jac2 = (_nontrivial_dn(c) for c in curves)

    mismatches = []

    def expect(label, computed, expected):
        if computed != expected:
            mismatches.append(f"{label}: computed {computed}, expected {expected}")
        return computed

    expect("K2", surf["K2"], row.k2)
    expect("singularities", computed_sing, row.singularities)
    expect("eta", surf["eta"], row.eta)
    expect("family_dim", surf["family_dim"], row.family_dim)
    expect("genera", tuple(c["genus"] for c in curves), row.genera)
    expect("jacobian(curve1)", jac1, row.jac1)
    expect("jacobian(curve2)", jac2, row.jac2)
    expect("pairing status", pairing["status"], "unique")

    match = pairing["matches"][0] if pairing["matches"] else None
    paired_dn = None
    if match is not None:
        c1, c2 = match["curve1"], match["curve2"]
        paired_dn = (c1["d"], c1["n"])
        expect("paired [d,n,m] on curve1", (c1["d"], c1["n"], c1["m"]), row.paired)
        expect("paired [d,n,m] on curve2", (c2["d"], c2["n"], c2["m"]), row.paired)

    return {
        "row": row.name,
        "group": row.group_name,
        "K2": surf["K2"],
        "eta": surf["eta"],
        "family_dim": surf["family_dim"],
        "singularities": [s["type"] for s in surf["singularities"]],
        "jacobian1": [list(p) for p in jac1],
        "jacobian2": [list(p) for p in jac2],
        "paired_dn": list(paired_dn) if paired_dn else None,
        "quaternionic": bool(match and match["quaternionic"]),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def reproduce_tables(rows=ROWS) -> list[dict]:
    return [_check_row(row) for row in rows]


def cmd_reproduce_tables(args) -> int:
    results = reproduce_tables([row_by_name(args.row)] if args.row else ROWS)
    if args.format == "json":
        sys.stdout.write(to_json(results))
    else:
        for res in results:
            sing = " + ".join(res["singularities"]) if res["singularities"] else "-"
            status = "ok" if res["ok"] else "MISMATCH"
            sys.stdout.write(
                f"row {res['row']:5s} ({res['group']:12s}): K2={res['K2']} eta={res['eta']} "
                f"dim={res['family_dim']} sing={sing} "
                f"jac1={res['jacobian1']} jac2={res['jacobian2']} "
                f"paired={res['paired_dn']}"
                f"{' quaternionic' if res['quaternionic'] else ''} ... {status}\n"
            )
            for line in res["mismatches"]:
                sys.stdout.write(f"    {line}\n")
        matched = sum(1 for r in results if r["ok"])
        sys.stdout.write(f"{matched}/{len(results)} rows matched\n")
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_MISMATCH


def cmd_search(args) -> int:
    group = catalog_group(args.group)
    if args.genus0 < 0:
        raise ParseError(f"genus0 must be nonnegative, not {args.genus0}")
    orders = _split_ints(args.orders, "orders")
    vectors = search_generating_vectors(group, args.genus0, orders)
    sys.stdout.write(f"count {len(vectors)}\n")
    for i, gv in enumerate(vectors):
        handles = " ".join(f"{a.cycle_string()},{b.cycle_string()}" for a, b in gv.handles)
        monos = " ".join(c.cycle_string() for c in gv.monodromies)
        sys.stdout.write(
            f"vector {i}: handles [{handles or '-'}] monodromies [{monos or '-'}] "
            f"orders {','.join(str(m) for m in gv.orders)}\n"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqsurf",
        description="Invariants of product-quotient surfaces with p_g = q = 2.",
    )
    parser.add_argument("--version", action="version", version=f"pqsurf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a surface description file")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--format", choices=("text", "json"), default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_tables = sub.add_parser(
        "reproduce-tables", help="recompute the built-in reference tables"
    )
    p_tables.add_argument("--row", default=None, help="restrict to one named row")
    p_tables.add_argument("--format", choices=("text", "json"), default="text")
    p_tables.set_defaults(func=cmd_reproduce_tables)

    p_search = sub.add_parser("search", help="enumerate generating vectors")
    p_search.add_argument("group")
    p_search.add_argument("genus0", type=int)
    p_search.add_argument("orders", help="comma-separated branching orders, e.g. 2,2")
    p_search.set_defaults(func=cmd_search)

    return parser


# built by the first main() call, not at import: a process that never parses
# a command line never pays for it
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except PqsurfError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_CODES.get(type(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    raise SystemExit(main())
