"""Command-line frontend: tables, searches, censuses, scans, and images."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .core import (
    Orientation,
    ResidueTuple,
    build_pascal,
    build_steinhaus,
    is_balanced,
    multiplicity,
)
from .census import CENSUS_KINDS, average_census, extremal_ones_scan, triangle_count
from .errors import SteinhausError, TooLarge
from .modm import (
    ApFamilySpec,
    ap_balanced_scan,
    interlaced_claimed_sizes,
    interlaced_scan,
)
from .orbits import (
    check_period,
    gf2_kernel_basis,  # unused here; perfbench/workloads.py traces it by this name
    kernel_generator,
)
from .render import RenderSpec, render_family, render_orbit
from .search import (
    balanced_period_classes,
    check_family,
    check_oracle_size,
    full_search,
    generator_tuple,
    oracle_verify_family,
    pascal_generator_tuples,
)
from .symmetry import partition_classes

# bound on witnesses x p, the per-witness work behind CSV, JSON and --k-verify: p = 264 reaches
# 91% of it (CSV 2.0 s, 40 MB; JSON 3.5 s, 61 MB; --k-verify 6 --format json 7.6 s)
WITNESS_WORK_LIMIT = 1 << 21


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _write_output(text_or_bytes, out_path: str | None) -> None:
    data = (
        text_or_bytes
        if isinstance(text_or_bytes, bytes)
        else text_or_bytes.encode("utf-8")
    )
    if out_path:
        with open(out_path, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _emit_table(headers: list[str], rows: list[list], args) -> None:
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        _write_output(buffer.getvalue(), args.out)
    elif args.format == "json":
        _emit_json([dict(zip(headers, row)) for row in rows], args)
    else:
        widths = [
            max(len(str(h)), *(len(str(row[k])) for row in rows)) if rows else len(h)
            for k, h in enumerate(headers)
        ]
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for row in rows:
            lines.append(
                "  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
            )
        _write_output("\n".join(lines) + "\n", args.out)


def _emit_json(payload, args) -> None:
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)


def _cmd_triangle(args) -> int:
    if args.seed_tuple is not None:
        triangle = build_steinhaus(ResidueTuple.from_string(args.seed_tuple, args.modulus))
    elif args.left is not None and args.right is not None:
        triangle = build_pascal(
            ResidueTuple.from_string(args.left, args.modulus),
            ResidueTuple.from_string(args.right, args.modulus),
        )
    else:
        raise SteinhausError("supply --seed-tuple or both --left and --right")
    table = multiplicity(triangle)
    result = is_balanced(triangle)
    if args.format == "json":
        _emit_json(
            {
                "triangle": triangle.to_json_dict(),
                "counts": {str(x): c for x, c in table.as_dict().items()},
                "spread": result.spread,
                "balanced": result.balanced,
            },
            args,
        )
        return 0
    if args.format == "csv":
        rows = [[x, c] for x, c in table.as_dict().items()]
        _emit_table(["residue", "count"], rows, args)
        return 0
    lines = []
    for row in triangle.rows:
        lines.append(" " * (triangle.size - len(row)) + " ".join(str(e) for e in row))
    counts = " ".join(f"{x}:{c}" for x, c in table.as_dict().items())
    lines.append(f"size={triangle.size} cells={triangle.cell_count} counts {counts}")
    lines.append(f"spread={result.spread} balanced={'yes' if result.balanced else 'no'}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_kernel(args) -> int:
    periods = [args.p] if args.p is not None else range(1, args.p_max + 1)
    check_period(periods[-1])  # before the first row of a table
    rows = []
    for p in periods:
        dim = kernel_generator(p)[0]
        rows.append([p, dim, 1 << dim])
    _emit_table(["p", "kernel_dim", "tuple_count"], rows, args)
    return 0


def _cmd_classes(args) -> int:
    if args.p is not None:
        rows = [
            [args.p, str(cls.representative), cls.size]
            for cls in partition_classes(args.p)
        ]
        _emit_table(["p", "representative", "orbit_size"], rows, args)
    else:
        rows = []
        for p in range(1, args.p_max + 1):
            classes = partition_classes(p)
            rows.append([p, sum(c.size for c in classes), len(classes)])
        _emit_table(["p", "tuple_count", "class_count"], rows, args)
    return 0


def _cmd_balanced_classes(args) -> int:
    if args.p is not None:
        rows = [
            [k + 1, str(cls.representative), cls.size]
            for k, cls in enumerate(balanced_period_classes(args.p))
        ]
        _emit_table(["index", "representative", "orbit_size"], rows, args)
    else:
        rows = []
        for p in range(4, args.p_max + 1, 4):
            rows.append([p, len(balanced_period_classes(p))])
        _emit_table(["p", "balanced_class_count"], rows, args)
    return 0


def _search_kinds(args) -> list[Orientation]:
    if args.kind == "both":
        return list(Orientation)
    return [Orientation(args.kind)]


def _generator_fields(kind: Orientation, x: ResidueTuple, i0: int, j0: int) -> dict:
    """The tuples generating a witness's triangles: the row z for Steinhaus,
    the two sides z_left and z_right for Pascal."""
    if kind is Orientation.STEINHAUS:
        return {"z": str(generator_tuple(x, i0, j0))}
    left, right = pascal_generator_tuples(x, i0, j0)
    return {"z_left": str(left), "z_right": str(right)}


def _certificates(report, kinds: list[Orientation], k_verify: int) -> dict:
    """One certificate per witness, keyed by (class index, kind, remainder): a
    witness must have one, and with k_verify > 0 it must pass the oracle too."""
    certs = {}
    for entry in report.classes:
        for kind in kinds:
            for r, i0, j0 in entry.remainders(kind).witnesses:
                cert = check_family(entry.class_rep, i0, j0, r, kind)
                if cert is None or (k_verify and not oracle_verify_family(cert, k_verify)):
                    check = f"oracle verification at K={k_verify}" if k_verify else "check_family"
                    raise SteinhausError(
                        f"witness ({i0},{j0},{r}) of class {entry.index} failed {check}"
                    )
                certs[entry.index, kind, r] = cert
    return certs


def _cmd_search(args) -> int:
    if args.k_verify:  # the oracle's own bound, checked before the search starts
        check_oracle_size(args.p, args.k_verify)
    report = full_search(args.p)
    kinds = _search_kinds(args)
    n = sum(len(entry.remainders(kind)) for entry in report.classes for kind in kinds)
    if (args.k_verify or args.format != "text") and n * args.p > WITNESS_WORK_LIMIT:
        raise TooLarge(f"{n} witnesses of period {args.p} exceed the work bound {WITNESS_WORK_LIMIT}")
    certs = {}
    if args.k_verify or args.format == "json":
        certs = _certificates(report, kinds, args.k_verify)
    if args.format == "json":
        payload = {"p": report.p, "classes": []}
        for entry in report.classes:
            item = {
                "index": entry.index,
                "representative": str(entry.class_rep),
            }
            for kind in kinds:
                rset = entry.remainders(kind)
                witnesses = []
                for r, i0, j0 in rset.witnesses:
                    record = certs[entry.index, kind, r].to_json_dict()
                    record.update(_generator_fields(kind, entry.class_rep, i0, j0))
                    witnesses.append(record)
                item[kind.value] = {
                    "remainder_count": len(rset),
                    "remainders": list(rset.remainders),
                    "witnesses": witnesses,
                }
            payload["classes"].append(item)
        if args.k_verify:
            payload["verified_certificates"] = len(certs)
            payload["k_verify"] = args.k_verify
        _emit_json(payload, args)
        return 0
    if args.format == "csv":
        rows = []
        for entry in report.classes:
            for kind in kinds:
                for r, i0, j0 in entry.remainders(kind).witnesses:
                    fields = _generator_fields(kind, entry.class_rep, i0, j0)
                    rows.append(
                        [entry.index, str(entry.class_rep), kind.value, r, i0, j0]
                        + [fields.get(key, "") for key in ("z", "z_left", "z_right")]
                    )
        _emit_table(
            ["class_index", "representative", "kind", "remainder", "i0", "j0", "z", "z_left", "z_right"],
            rows,
            args,
        )
        return 0
    lines = [f"balanced-period classes at p={report.p}: {len(report.classes)}"]
    for entry in report.classes:
        parts = [f"class {entry.index:2d} {entry.class_rep}"]
        for kind in kinds:
            parts.append(f"{kind.value} |R|={len(entry.remainders(kind))}")
        lines.append("  ".join(parts))
    for kind in kinds:
        full = report.full_classes(kind)
        lines.append(
            f"classes with every remainder ({kind.value}): "
            + (", ".join(str(i) for i in full) if full else "none")
        )
    if args.k_verify:
        lines.append(f"verified {len(certs)} certificates at K={args.k_verify}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_census(args) -> int:
    kind = Orientation(args.kind)
    census = CENSUS_KINDS[kind]
    n_max = census.limit if args.n_max is None else args.n_max
    rows = []
    for n in range(1, n_max + 1):
        total = average_census(n, kind)
        count = triangle_count(n, kind)
        cells = n * (n + 1) // 2
        rows.append(
            [n, count, total, total / count, cells / 2, extremal_ones_scan(n, kind),
             census.max_ones(n)]
        )
    _emit_table(
        ["n", "triangles", "total_ones", "average", "expected_average", "max_ones", "formula_max"],
        rows,
        args,
    )
    return 0


def _cmd_modm(args) -> int:
    rows = []
    if args.scan == "ap":
        spec = ApFamilySpec(args.modulus, args.difference, args.start)
        n_max = args.periods * spec.period if args.n_max is None else args.n_max
        for entry in ap_balanced_scan(spec, n_max):
            rows.append(
                [args.modulus, str(args.difference), entry.n,
                 "yes" if entry.balanced else "no", entry.spread]
            )
    else:
        n_max = args.periods * 6 * args.modulus if args.n_max is None else args.n_max
        kind = Orientation(args.kind)
        witnesses = interlaced_scan(args.modulus, n_max, kind)
        claimed = set(interlaced_claimed_sizes(args.modulus, n_max, kind))
        missing = [w.n for w in witnesses if w.n in claimed and not w.found]
        if missing:
            raise SteinhausError(f"claimed sizes without balanced witness: {missing}")
        for w in witnesses:
            rows.append(
                [args.modulus, "interlaced", w.n, "yes" if w.found else "no", w.spread]
            )
    _emit_table(["m", "sequence", "n", "balanced", "spread"], rows, args)
    return 0


def _parse_window(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    try:
        i_part, j_part = text.split(",")
        i_lo, i_hi = (int(v) for v in i_part.split(":"))
        j_lo, j_hi = (int(v) for v in j_part.split(":"))
    except ValueError as exc:
        raise SteinhausError(f"bad window {text!r}; expected I0:I1,J0:J1") from exc
    return (i_lo, i_hi), (j_lo, j_hi)


def _cmd_render(args) -> int:
    if args.target == "orbit":
        x = ResidueTuple.from_string(args.seed_tuple, args.modulus)
        window = _parse_window(args.window) if args.window else None
        spec = RenderSpec(cell_size=args.cell_size, window=window)
        data = render_orbit(x, spec)
    else:
        x = ResidueTuple.from_string(args.seed_tuple, 2)
        kind = Orientation(args.kind)
        cert = check_family(x, args.i0, args.j0, args.r, kind)
        if cert is None:
            raise SteinhausError(
                f"position ({args.i0},{args.j0}) remainder {args.r} does not "
                "generate a balanced family"
            )
        data = render_family(cert, args.k, RenderSpec(cell_size=args.cell_size))
    _write_output(data, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinhaus",
        description="Balanced triangles under the Pascal rule mod 2: orbits, "
        "symmetry classes, family search, censuses, and renders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p_tri = sub.add_parser("triangle", help="build a triangle and report balance")
    p_tri.add_argument("--seed-tuple", help="top row of a Steinhaus triangle")
    p_tri.add_argument("--left", help="left side of a Pascal triangle")
    p_tri.add_argument("--right", help="right side of a Pascal triangle")
    p_tri.add_argument("--modulus", type=int, default=2)
    add_common(p_tri)
    p_tri.set_defaults(func=_cmd_triangle)

    p_ker = sub.add_parser("kernel", help="kernel dimensions of the binomial circulant")
    p_ker.add_argument("--p-max", type=positive_int, default=24)
    p_ker.add_argument("--p", type=positive_int)
    add_common(p_ker)
    p_ker.set_defaults(func=_cmd_kernel)

    p_cls = sub.add_parser("classes", help="symmetry classes of periodic generators")
    p_cls.add_argument("--p", type=positive_int, help="list classes for one period")
    p_cls.add_argument("--p-max", type=positive_int, default=24, help="count classes up to this period")
    add_common(p_cls)
    p_cls.set_defaults(func=_cmd_classes)

    p_bal = sub.add_parser("balanced-classes", help="classes with a balanced period")
    p_bal.add_argument("--p", type=positive_int)
    p_bal.add_argument("--p-max", type=positive_int, default=24)
    add_common(p_bal)
    p_bal.set_defaults(func=_cmd_balanced_classes)

    p_sea = sub.add_parser("search", help="family search over balanced-period classes")
    p_sea.add_argument("--p", type=positive_int, required=True)
    p_sea.add_argument("--kind", choices=("steinhaus", "pascal", "both"), default="both")
    p_sea.add_argument("--k-verify", type=non_negative_int, default=0,
                       help="re-verify every witness by direct extraction up to this multiplier "
                       "(refused when K*p + p - 1 exceeds the triangle size bound)")
    # no process pool is left: 1 only, so that perfbench's --jobs 1 parses
    p_sea.add_argument("--jobs", type=positive_int, choices=(1,), default=1, help=argparse.SUPPRESS)
    add_common(p_sea)
    p_sea.set_defaults(func=_cmd_search)

    p_cen = sub.add_parser("census", help="exhaustive one-count census of small triangles")
    p_cen.add_argument("--kind", choices=("steinhaus", "pascal"), default="steinhaus")
    p_cen.add_argument("--n-max", type=positive_int)
    add_common(p_cen)
    p_cen.set_defaults(func=_cmd_census)

    p_mod = sub.add_parser("modm", help="balance scans modulo m")
    p_mod.add_argument("--scan", choices=("ap", "interlaced"), required=True)
    p_mod.add_argument("--modulus", type=int, required=True)
    p_mod.add_argument("--difference", type=int, default=1)
    p_mod.add_argument("--start", type=int, default=0)
    p_mod.add_argument("--n-max", type=positive_int)
    p_mod.add_argument("--periods", type=positive_int, default=3)
    p_mod.add_argument("--kind", choices=("steinhaus", "pascal"), default="steinhaus")
    add_common(p_mod)
    p_mod.set_defaults(func=_cmd_modm)

    p_ren = sub.add_parser("render", help="write a PBM/PPM image")
    p_ren.add_argument("target", choices=("orbit", "family"))
    p_ren.add_argument("--seed-tuple", required=True)
    p_ren.add_argument("--modulus", type=int, default=2)
    p_ren.add_argument("--window", help="orbit window I0:I1,J0:J1")
    p_ren.add_argument("--cell-size", type=positive_int, default=1)
    p_ren.add_argument("--i0", type=int, default=0)
    p_ren.add_argument("--j0", type=int, default=0)
    p_ren.add_argument("--r", type=int, default=0)
    p_ren.add_argument("--k", type=non_negative_int, default=1)
    p_ren.add_argument("--kind", choices=("steinhaus", "pascal"), default="steinhaus")
    p_ren.add_argument("--out", required=True)
    p_ren.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # validation errors and unwritable --out paths
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
