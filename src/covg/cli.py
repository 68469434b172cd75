"""Command-line front end: ingest COM/arrangement/group JSON, run the
requested computation or verification, and emit a deterministic run report.

Reports are JSON by default (timing is included only on request so that
identical inputs give byte-identical output); --format table renders aligned
text.  Exit status is 0 unless a verification assertion fails or an input is
rejected.  Covector lists longer than STREAM_THRESHOLD (10,000) are written
as JSON lines: a header object first, then one covector string per line.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import jsonio
from .com import COM, check_axioms, coloops, flats_of, topes
from .equivariant import GroupSpec, graded_character, locus_action, verify_graded_module_structure
from .exactla import field_from_name
from .harmonics import (
    covector_locus,
    hilbert_from_nbc,
    hilbert_series,
    kostant_locus,
    permmatrix_locus,
    permutohedral_locus,
    tope_locus,
    verify_covector_presentation,
    verify_tope_presentation,
)
from .matroidal import (
    basic_sets,
    check_tope_contraction_count,
    check_two_values,
    circuits,
    codim_of_basic_sets,
    minimal_nonbasic_sets,
    mixing_subsets,
    nbc_sets,
)
from .realize import Arrangement, braid_com, enumerate_covectors, fixture


STREAM_THRESHOLD = 10_000  # covector lists longer than this stream as JSON lines


class CliError(Exception):
    pass


def _labels(M, indices):
    return [M.ground.labels[i] for i in sorted(indices)]


def _parse_flat(M, text):
    if text in ("", "empty"):
        return frozenset()
    indices = []
    for part in text.split(","):
        part = part.strip()
        indices.append(M.ground.index(part))
    return frozenset(indices)


def _parse_order(M, text):
    if text is None:
        return None
    return tuple(M.ground.index(p.strip()) for p in text.split(","))


def _load_com(path):
    data = jsonio.read_json(path)
    return COM.from_json_dict(data)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, assertions)


def cmd_check(args):
    M = COM.from_json_dict(jsonio.read_json(args.com), check=False)
    report = check_axioms(M.covectors)
    return report, {"axioms": report["ok"]}


def cmd_enumerate(args):
    arr = Arrangement.from_json_dict(jsonio.read_json(args.arrangement))
    M = enumerate_covectors(arr)
    return {"com": M.to_json_dict(), "covector_count": len(M)}, {}


def cmd_braid(args):
    M = braid_com(args.n)
    return {"com": M.to_json_dict(), "covector_count": len(M)}, {}


def cmd_fixture(args):
    M = fixture(args.name)
    return {"com": M.to_json_dict(), "covector_count": len(M)}, {}


def cmd_circuits(args):
    M = _load_com(args.com)
    out = [{"vector": c.vector.to_string(), "symmetric": c.symmetric} for c in circuits(M)]
    return {"circuits": out, "count": len(out)}, {}


def cmd_nbc(args):
    M = _load_com(args.com)
    order = _parse_order(M, args.order)
    sets = nbc_sets(M, order)
    order_labels = (
        list(M.ground.labels) if order is None else [M.ground.labels[i] for i in order]
    )
    return {
        "order": order_labels,
        "nbc_sets": [_labels(M, s) for s in sets],
        "count": len(sets),
    }, {"nbc_count_equals_topes": len(sets) == len(topes(M))}


def cmd_flats(args):
    M = _load_com(args.com)
    poset = flats_of(M)
    return {
        "flats": [_labels(M, f) for f in poset],
        "coloops": _labels(M, coloops(M)),
        "count": len(poset),
    }, {}


def cmd_basic(args):
    M = _load_com(args.com)
    F = _parse_flat(M, args.flat)
    basics = basic_sets(M, F)
    return {
        "flat": _labels(M, F),
        "basic_sets": [_labels(M, b) for b in basics],
        "codim": codim_of_basic_sets(F, basics),
        "minimal_nonbasic_sets": [_labels(M, c) for c in minimal_nonbasic_sets(M)],
    }, {}


def cmd_hilbert(args):
    field = field_from_name(args.field)
    M = _load_com(args.com)
    if args.method == "rank":
        locus = tope_locus(M) if args.which == "small" else covector_locus(M)
        series = hilbert_series(locus, field)
    else:
        pair = hilbert_from_nbc(M)
        series = pair["tope"] if args.which == "small" else pair["covector"]
    return {
        "which": args.which,
        "method": args.method,
        "field": field.name,
        "coeffs": list(series.coeffs),
        "dimension": series.at_one(),
    }, {}


def cmd_verify(args):
    field = field_from_name(args.field)
    M = _load_com(args.com)
    if args.what == "big-theorem":
        report = verify_covector_presentation(M, field=field)
        return report, {
            "membership": not report["membership"]["failures"],
            "basis": report["basis_ok"],
            "hilbert_match": report["hilbert"]["ok"],
            "j_sweep": not report["j_sweep"]["failures"],
        }
    if args.what == "small-generators":
        report = verify_tope_presentation(M, field=field)
        return report, {
            "affine_vanish": not report["affine_nonvanishing"],
            "graded_membership": not report["graded_nonmembers"],
        }
    if args.what == "two-values":
        reports = [check_two_values(M, F, X, J) for F, X, J in mixing_subsets(M)]
        failures = [rep for rep in reports if not rep["ok"]]
        return {"checked": len(reports), "failures": failures}, {"two_values": not failures}
    if args.what == "tope-count":
        rep = check_tope_contraction_count(M)
        return rep, {"tope_count": rep["ok"]}
    raise CliError(f"unknown verification {args.what!r}")


def cmd_loci(args):
    field = field_from_name(args.field)
    makers = {
        "kostant": kostant_locus,
        "permutohedral": permutohedral_locus,
        "permmatrix": permmatrix_locus,
    }
    locus = makers[args.family](args.n)
    results = {
        "family": args.family,
        "n": args.n,
        "points": len(locus),
        "variables": list(locus.variables),
    }
    if args.hilbert:
        series = hilbert_series(locus, field)
        results["hilbert"] = list(series.coeffs)
    else:
        results["locus"] = locus.to_json_dict()
    return results, {}


def cmd_character(args):
    field = field_from_name(args.field)
    M = _load_com(args.com)
    group = GroupSpec.from_json_dict(M, jsonio.read_json(args.group))
    locus = covector_locus(M)
    if args.verify_decomposition:
        rep = verify_graded_module_structure(M, group, field=field)
        ch = rep.lhs
    else:
        ch = graded_character(locus, group, field)
    labels = M.ground.labels
    # the fixed-point count is a class function: one action per class
    fixed_per_class = [
        sum(1 for k, img in enumerate(locus_action(locus, members[0])) if k == img)
        for members in group.classes
    ]
    table = []
    for w in group.elements:
        table.append(
            {
                "perm": [labels[w.perm[i]] for i in range(len(w))],
                "signs": list(w.signs),
                "values": [str(v) for v in ch.values[w]],
                "fixed_covectors": fixed_per_class[group.class_index[w]],
            }
        )
    def _sum_matches(w, row):
        return field.of(sum(ch.values[w])) == field.of(row["fixed_covectors"])

    results = {"group_order": group.order, "character": table}
    assertions = {
        "column_sums_are_fixed_point_counts": all(
            _sum_matches(w, row) for w, row in zip(group.elements, table)
        )
    }
    if args.verify_decomposition:
        results["decomposition"] = rep.as_dict()
        assertions["decomposition"] = rep.ok
    return results, assertions


# ---------------------------------------------------------------------------
# report plumbing


def _format_table(data, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(data, dict):
        width = max((len(str(k)) for k in data), default=0)
        for k, v in data.items():
            if isinstance(v, (dict, list)) and v and not _is_flat_list(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_format_table(v, indent + 1))
            else:
                lines.append(f"{pad}{str(k):<{width}}  {_render_scalar(v)}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                lines.extend(_format_table(item, indent))
                lines.append("")
            else:
                lines.append(f"{pad}{_render_scalar(item)}")
    else:
        lines.append(f"{pad}{_render_scalar(data)}")
    return lines


def _is_flat_list(v):
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _render_scalar(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def _inputs(args):
    """The input files a command read, in report order: COM, arrangement, group."""
    return [getattr(args, name) for name in ("com", "arrangement", "group") if hasattr(args, name)]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="covg",
        description="Exact computations on conditional oriented matroids and "
        "the graded rings of their sign-vector loci.",
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument(
        "--field",
        default="rational",
        help="coefficient field of the row spaces: rational (default) or fp:<prime>",
    )
    parser.add_argument("--timing", action="store_true", help="include wall time in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="axiom check for a covector family")
    p.add_argument("com")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("enumerate", help="sign vectors of an arrangement meeting a region")
    p.add_argument("arrangement")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("braid", help="the braid COM on pairs from 1..n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=cmd_braid)

    p = sub.add_parser("fixture", help="a shipped example COM")
    p.add_argument("--name", required=True)
    p.set_defaults(handler=cmd_fixture)

    p = sub.add_parser("circuits", help="circuits with symmetry flags")
    p.add_argument("com")
    p.set_defaults(handler=cmd_circuits)

    p = sub.add_parser("nbc", help="no-broken-circuit sets")
    p.add_argument("com")
    p.add_argument("--order", default=None, help="comma-separated ground labels")
    p.set_defaults(handler=cmd_nbc)

    p = sub.add_parser("flats", help="the flat poset")
    p.add_argument("com")
    p.set_defaults(handler=cmd_flats)

    p = sub.add_parser("basic", help="basic sets of a flat")
    p.add_argument("com")
    p.add_argument("--flat", required=True, help="comma-separated labels; 'empty' for the empty flat")
    p.set_defaults(handler=cmd_basic)

    p = sub.add_parser("hilbert", help="graded dimension counts of a locus ring")
    p.add_argument("com")
    p.add_argument("--which", choices=("small", "big"), required=True)
    p.add_argument("--method", choices=("rank", "nbc"), default="rank")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("com")
    p.add_argument(
        "--what",
        choices=("big-theorem", "small-generators", "two-values", "tope-count"),
        required=True,
    )
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("loci", help="permutation loci and their Hilbert series")
    p.add_argument("--family", choices=("kostant", "permutohedral", "permmatrix"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hilbert", action="store_true")
    p.set_defaults(handler=cmd_loci)

    p = sub.add_parser("character", help="graded character of a group on the covector locus")
    p.add_argument("com")
    p.add_argument("--group", required=True)
    p.add_argument("--verify-decomposition", action="store_true")
    p.set_defaults(handler=cmd_character)

    return parser


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        results, assertions = args.handler(args)
    except Exception as exc:  # surfaced as a structured error report
        report = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(jsonio.dumps(report))
        return 2
    report = {
        "command": args.command,
        "inputs": {
            path: {"path": path, "sha256": jsonio.sha256_file(path)}
            for path in _inputs(args)
        },
        "results": results,
        "assertions": assertions,
    }
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)

    stream_covectors = None
    com_block = results.get("com") if isinstance(results, dict) else None
    if (
        args.format == "json"
        and com_block
        and len(com_block.get("covectors", ())) > STREAM_THRESHOLD
    ):
        stream_covectors = com_block["covectors"]
        com_block["covectors"] = f"streamed:{len(stream_covectors)}"

    if args.format == "json":
        if stream_covectors is None:
            sys.stdout.write(jsonio.dumps(report))
        else:
            import json as _json

            sys.stdout.write(_json.dumps(report) + "\n")
            for cv in stream_covectors:
                sys.stdout.write(cv + "\n")
    else:
        sys.stdout.write("\n".join(_format_table(report)) + "\n")
    return 0 if all(assertions.values()) else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
