"""Command-line front end: enumeration, table reproduction, theorem sweeps.

Output is CSV or JSON on stdout, byte-deterministic for fixed inputs.  Exit
codes: 0 when everything requested PASSes, 1 on a verification FAIL (the
witness is in the output), 2 on usage errors.

`enumerate` prints a level from the sorted integer rows C m of its length
form (QuadraticForm.level_numerators): each distinct integer is formatted
once, as str(Fraction(x, Q)), and the CSV is written one line per point,
the lines csv.writer would write.  A level whose search would loop its
outermost coordinate over more than atomic.MAX_OUTER_VALUES values is
refused as a usage error (atomic.level_form).
"""

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from functools import cache

from . import atomic, cores, param
from .dynkin import lookup_type

FIGURES = {
    "8N+1": {"case": "C2L1", "default_max_n": 14,
             "header": ["N", "M_prime", "phi_M_prime", "L_minus_M_prime",
                        "phi_L_minus_M_prime", "solutions"]},
    "40N+10": {"case": "A42", "default_max_n": 6,
               "header": ["N", "B", "phi", "solutions"]},
    "6N+7": {"case": "G21", "default_max_n": 5,
             "header": ["N", "B", "phi", "solutions"]},
    "12N+7": {"case": "D43", "default_max_n": 19,
              "header": ["N", "partitions", "B", "phi", "solutions"]},
}

VERIFY_CASES = tuple(param.CASES)


def _fraction(token):
    """A rational number read from text.  A zero denominator, or a decimal
    exponent beyond 4300 (the most digits Python reads into an int from text;
    a larger one builds a number of any size), is a usage error."""
    exponent = re.search(r"e([-+]?\d[\d_]*)\s*\Z", token, re.IGNORECASE)
    if exponent and abs(int(exponent.group(1))) > 4300:
        raise ValueError(f"exponent of {token!r} is outside -4300..4300")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None


def _fmt_tuple(t):
    return "(" + ",".join(map(str, t)) + ")"


def _cell(tuples):
    """The tuples in the order given; U comes sorted from the solver."""
    return ";".join(map(_fmt_tuple, tuples))


def _partition_cell(partitions):
    return ";".join(cores.format_partition(p) for p in sorted(partitions))


def figure_rows(figure, max_n):
    spec = FIGURES[figure]
    case = param.get_case(spec["case"])
    rows = []
    for n in range(max_n + 1):
        level = param.LevelData(case, n)
        if figure == "8N+1":
            # split by the parity of the rotated point: even sums lie in M
            rotated = [(param.u_rotate(q), img)
                       for q, img in zip(level.points, level.images)]
            in_m = [pair for pair in rotated if sum(pair[0]) % 2 == 0]
            outside = [pair for pair in rotated if sum(pair[0]) % 2 == 1]
            rows.append([str(n), _cell(sorted(b for b, _ in in_m)),
                         _cell(sorted(img for _, img in in_m)),
                         _cell(sorted(b for b, _ in outside)),
                         _cell(sorted(img for _, img in outside)), _cell(level.solutions)])
        else:
            # the tables list the two free coordinates; phi reads only those
            pairs = [tuple(q[:2]) for q in level.points]
            cells = [_cell(sorted(pairs)), _cell(sorted(level.images)), _cell(level.solutions)]
            if figure == "12N+7":
                cells.insert(0, _partition_cell(map(cores.d4flat_from_lattice, pairs)))
            rows.append([str(n)] + cells)
    return spec["header"], rows


def _emit_csv(header, rows, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_json(obj, out):
    json.dump(obj, out, separators=(",", ":"))
    out.write("\n")


def _check_level(flag, n):
    """Levels N are non-negative; a negative one is a usage error."""
    if n is not None and n < 0:
        raise ValueError(f"{flag} must be non-negative, got {n}")


def _report_output(reports, fmt, out):
    if fmt == "json":
        _emit_json([r.to_dict() for r in reports], out)
    else:
        header = ["case", "N", "status", "solutions", "orbits", "phi_images", "witness"]
        rows = [[r.case, str(r.N), r.status,
                 str(r.counts.get("solutions", "")),
                 str(r.counts.get("orbits", "")),
                 str(r.counts.get("phi_images", "")),
                 json.dumps(r.witness, separators=(",", ":")) if r.witness else ""]
                for r in reports]
        _emit_csv(header, rows, out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_atomic_length(args, out):
    t = lookup_type(args.type)
    coords = tuple(map(_fraction, args.coords.split(",")))
    if len(coords) != t.ambient_dim:
        raise ValueError(f"{args.type} takes {t.ambient_dim} coordinates, got {len(coords)}")
    weight = int(args.weight[1:])
    if weight == 0:
        value = atomic.atomic_length0(t, coords)
    else:
        value = atomic.atomic_length_i(t, weight, coords)
    if args.format == "json":
        _emit_json({"type": args.type, "weight": args.weight,
                    "coords": list(map(str, coords)), "value": str(value)}, out)
    else:
        _emit_csv(["type", "weight", "coords", "value"],
                  [[args.type, args.weight, _fmt_tuple(coords), str(value)]], out)
    return 0


def _cmd_enumerate(args, out):
    t = lookup_type(args.type)
    weight = int(args.weight[1:])
    target = _fraction(args.N)
    lattice = args.lattice or ("L" if weight == 1 else "M")
    form = atomic.level_form(t, weight, target, lattice)
    rows, level = form.level_numerators(target), str(target)
    # a level repeats few coordinate values, so each is formatted once
    text = {x: str(Fraction(x, form.Q)) for x in set().union(*rows)}.__getitem__
    if args.format == "json":
        _emit_json({"type": args.type, "weight": args.weight, "lattice": lattice,
                    "N": level, "elements": [list(map(text, row)) for row in rows]}, out)
    else:
        # the lines csv.writer writes: the type is canonical, the weight and
        # lattice are argparse choices and N a str(Fraction), so only the
        # coordinates need quoting, and they always hold a comma, as every
        # type has at least two of them
        prefix = f'{args.type},{args.weight},{lattice},{level},"('
        out.write("type,weight,lattice,N,coords\n")
        out.writelines(f'{prefix}{",".join(map(text, row))})"\n' for row in rows)
    return 0


def _cmd_solve(args, out):
    _check_level("--N", args.N)
    level = param.LevelData(param.get_case(args.case), args.N)
    k, sols = level.k, level.solutions
    if args.format == "json":
        _emit_json({"case": args.case, "N": args.N, "k": k,
                    "form": list(level.case.form), "solutions": [list(s) for s in sols]}, out)
    else:
        _emit_csv(["case", "N", "k", "solutions"],
                  [[args.case, str(args.N), str(k), _cell(sols)]], out)
    return 0


def _cmd_table(args, out):
    _check_level("--max-N", args.max_N)
    spec = FIGURES[args.figure]
    max_n = args.max_N if args.max_N is not None else spec["default_max_n"]
    header, rows = figure_rows(args.figure, max_n)
    if args.format == "json":
        _emit_json({"figure": args.figure,
                    "rows": [dict(zip(header, row)) for row in rows]}, out)
    else:
        _emit_csv(header, rows, out)
    return 0


def _cmd_verify(args, out):
    _check_level("--N", args.N)
    _check_level("--max-N", args.max_N)
    if args.N is not None:
        ns = [args.N]
    else:
        max_n = args.max_N if args.max_N is not None else 20
        ns = range(max_n + 1)
    reports = [param.verify_case(args.case, n) for n in ns]
    return _report_output(reports, args.format, out)


def _cmd_conjecture(args, out):
    _check_level("--max-N", args.max_N)
    max_n = args.max_N if args.max_N is not None else 20
    reports = [param.a3_conjecture_check(n) for n in range(max_n + 1)]
    return _report_output(reports, args.format, out)


@cache
def build_parser():
    """The argument parser, built on the first call and shared by every later
    one: parsing keeps no state in it, each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="corelat",
        description="Atomic lengths, generalised cores, and Pell-type sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="accepted and ignored; computation is deterministic")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("atomic-length", help="evaluate the statistic on a vector")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", choices=("L0", "L1"), default="L0")
    p.add_argument("--coords", required=True,
                   help="comma-separated stored coordinates, e.g. '1,-3'")
    common(p)
    p.set_defaults(func=_cmd_atomic_length)

    p = sub.add_parser("enumerate", help="lattice points of a given atomic length")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", choices=("L0", "L1"), default="L0")
    p.add_argument("--lattice", choices=("M", "L"), default=None)
    p.add_argument("--N", required=True)
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve", help="integer solutions of a case's equation")
    p.add_argument("--case", required=True)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("table", help="reproduce a solution table")
    p.add_argument("--figure", choices=tuple(FIGURES), required=True)
    p.add_argument("--max-N", dest="max_N", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run a case verifier over a range of N")
    p.add_argument("--case", required=True,
                   help="one of %s or HYP:<type>" % (", ".join(VERIFY_CASES),))
    levels = p.add_mutually_exclusive_group()
    levels.add_argument("--N", type=int, default=None)
    levels.add_argument("--max-N", dest="max_N", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture-a3", help="orbit-coverage conjecture sweep")
    p.add_argument("--max-N", dest="max_N", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
