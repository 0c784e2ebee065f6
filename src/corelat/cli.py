"""Command-line front end: enumeration, table reproduction, theorem sweeps.

Output is CSV or JSON on stdout, byte-deterministic for fixed inputs.  The
sweeps (verify --max-N, conjecture-a3, table) decide their levels in bands
(param.band_levels), so the lattice search and the solve run once per band
of param.BAND levels, and each row is still written and flushed as it is
decided; verify --N and solve search their one level.  Exit codes: 0 when
everything requested PASSes, 1 on a verification FAIL (the witness is in
the output), 2 on a usage error, which writes nothing to stdout, and on a
stdout closed before the output ends.

A command's words are parsed once, by that command's own parser; the root
parser reads only an argv that does not start with a command or that the
command's parser leaves words of, so help, usage errors and their text are
argparse's own.

`enumerate` prints a level from the sorted integer rows C m of its length
form (QuadraticForm.level_numerators): each distinct integer x is formatted
once, from integers, as the text str(Fraction(x, Q)) gives, and the CSV is
written one line per point, the lines csv.writer would write.  A level
whose search would loop its outermost coordinate over more than
atomic.MAX_OUTER_VALUES values is refused as a usage error
(atomic.level_form).
"""

import argparse
import contextlib
import csv
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from math import gcd

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

_json = json.JSONEncoder(separators=(",", ":")).encode


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


def _ratio(x, q):
    """str(Fraction(x, q)) for ints x and q > 0, without building the Fraction."""
    g = gcd(x, q)
    return str(x // g) if g == q else f"{x // g}/{q // g}"


def _fmt_tuple(t):
    return "(" + ",".join(map(str, t)) + ")"


def _cell(tuples):
    """The tuples in the order given; U comes sorted from the solver."""
    return ";".join(map(_fmt_tuple, tuples))


def figure_rows(figure, max_n):
    """The figure's CSV rows, N = 0 to max_n, each decided when asked for."""
    for level in param.band_levels(param.get_case(FIGURES[figure]["case"]), 0, max_n + 1):
        n = level.n
        if figure == "8N+1":
            # split by the parity of the rotated point: even sums lie in M
            rotated = [(param.u_rotate(q), img)
                       for q, img in zip(level.points, level.images)]
            cells = [str(n)]
            for parity in (0, 1):
                half = [pair for pair in rotated if sum(pair[0]) % 2 == parity]
                cells += [_cell(sorted(b for b, _ in half)), _cell(sorted(img for _, img in half))]
            yield cells + [_cell(level.solutions)]
        else:
            # the tables list the two free coordinates; phi reads only those
            pairs = [tuple(q[:2]) for q in level.points]
            cells = [_cell(sorted(pairs)), _cell(sorted(level.images)), _cell(level.solutions)]
            if figure == "12N+7":
                partitions = sorted(map(cores.d4flat_from_lattice, pairs))
                cells.insert(0, ";".join(map(cores.format_partition, partitions)))
            yield [str(n)] + cells


def _write(out, fmt, header, items, opening, closing):
    """Write and flush each item as it arrives: CSV rows under the header, or
    JSON values joined by commas between opening and closing and a newline,
    the bytes json.dump(obj, separators=(",", ":")) writes for the whole."""
    if fmt == "json":
        out.write(opening)
        for i, value in enumerate(items):
            out.write("," + _json(value) if i else _json(value))
            out.flush()
        out.write(closing + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in items:
            writer.writerow(row)
            out.flush()


def _check_level(flag, n):
    """Levels N are non-negative; a negative one is a usage error."""
    if n is not None and n < 0:
        raise ValueError(f"{flag} must be non-negative, got {n}")


def _report_output(reports, fmt, out):
    """Write each report as it arrives; 1 when any of them FAILed, else 0."""
    failed = []

    def items():
        for r in reports:
            if not r.passed:
                failed.append(r.N)
            yield r.to_dict() if fmt == "json" else [
                r.case, str(r.N), r.status, str(r.counts.get("solutions", "")),
                str(r.counts.get("orbits", "")), str(r.counts.get("phi_images", "")),
                _json(r.witness) if r.witness else ""]

    _write(out, fmt, ["case", "N", "status", "solutions", "orbits", "phi_images", "witness"],
           items(), "[", "]")
    return 1 if failed else 0


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
    _write(out, args.format, ["type", "weight", "coords", "value"],
           [{"type": args.type, "weight": args.weight, "coords": list(map(str, coords)),
             "value": str(value)} if args.format == "json"
            else [args.type, args.weight, _fmt_tuple(coords), str(value)]], "", "")
    return 0


def _cmd_enumerate(args, out):
    t = lookup_type(args.type)
    weight = int(args.weight[1:])
    target = _fraction(args.N)
    lattice = args.lattice or ("L" if weight == 1 else "M")
    form = atomic.level_form(t, weight, target, lattice)
    rows, level = form.level_numerators(target), str(target)
    # a level repeats few coordinate values, so each is formatted once
    text = {x: _ratio(x, form.Q) for x in set().union(*rows)}.__getitem__
    if args.format == "json":
        out.write(_json({"type": args.type, "weight": args.weight, "lattice": lattice,
                         "N": level, "elements": [list(map(text, row)) for row in rows]}) + "\n")
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
    _write(out, args.format, ["case", "N", "k", "solutions"],
           [{"case": args.case, "N": args.N, "k": level.k, "form": list(level.case.form),
             "solutions": [list(s) for s in level.solutions]} if args.format == "json"
            else [args.case, str(args.N), str(level.k), _cell(level.solutions)]], "", "")
    return 0


def _cmd_table(args, out):
    _check_level("--max-N", args.max_N)
    spec = FIGURES[args.figure]
    max_n = args.max_N if args.max_N is not None else spec["default_max_n"]
    header, rows = spec["header"], figure_rows(args.figure, max_n)
    if args.format == "json":
        rows = (dict(zip(header, row)) for row in rows)
    _write(out, args.format, header, rows, '{"figure":%s,"rows":[' % _json(args.figure), "]}")
    return 0


def _cmd_verify(args, out):
    _check_level("--N", args.N)
    _check_level("--max-N", args.max_N)
    param.get_case(args.case)       # an unknown case is refused before the header
    max_n = args.max_N if args.max_N is not None else 20
    reports = ([param.verify_case(args.case, args.N)] if args.N is not None
               else param.verify_sweep(args.case, max_n))
    return _report_output(reports, args.format, out)


def _cmd_conjecture(args, out):
    _check_level("--max-N", args.max_N)
    max_n = args.max_N if args.max_N is not None else 20
    return _report_output(param.a3_conjecture_sweep(max_n), args.format, out)


@cache
def build_parser():
    """The argument parser, built on the first call and shared by every later
    one: parsing keeps no state in it, each parse gets a fresh namespace.
    Its commands attribute maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="corelat",
        description="Atomic lengths, generalised cores, and Pell-type sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("atomic-length", help="evaluate the statistic at a point of the root span")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", choices=("L0", "L1"), default="L0")
    p.add_argument("--coords", required=True,
                   help="comma-separated stored coordinates, e.g. '1,-3'; no lattice is checked")
    p.set_defaults(func=_cmd_atomic_length)

    p = sub.add_parser("enumerate", help="lattice points of a given atomic length")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", choices=("L0", "L1"), default="L0")
    p.add_argument("--lattice", choices=("M", "L"), default=None)
    p.add_argument("--N", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve", help="integer solutions of a case's equation")
    p.add_argument("--case", required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("table", help="reproduce a solution table")
    p.add_argument("--figure", choices=tuple(FIGURES), required=True)
    p.add_argument("--max-N", dest="max_N", type=int, default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run a case verifier over a range of N")
    p.add_argument("--case", required=True,
                   help="one of %s or HYP:<type>" % (", ".join(VERIFY_CASES),))
    levels = p.add_mutually_exclusive_group()
    levels.add_argument("--N", type=int, default=None)
    levels.add_argument("--max-N", dest="max_N", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("conjecture-a3", help="orbit-coverage conjecture sweep")
    p.add_argument("--max-N", dest="max_N", type=int, default=None)
    p.set_defaults(func=_cmd_conjecture)

    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=None,
                       help="accepted and ignored; computation is deterministic")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.commands = sub.choices
    return parser


def main(argv=None):
    """Run argv (sys.argv[1:] when None), parsed once: by its command's
    parser, or by the root one when no command leads or words are left."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, None)
    return _run(parser.parse_args(argv) if args is None or rest else args)


def _run(args):
    """The exit code of a parsed command; a ValueError or KeyError, or a
    stdout closed early, is one `error:` line on stderr and exit 2."""
    try:
        return args.func(args, sys.stdout)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        print("error: stdout was closed before the output ended", file=sys.stderr)
        with contextlib.suppress(OSError):      # an in-memory stdout has no fd
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)  # or the exit flush raises again
        return 2


if __name__ == "__main__":
    sys.exit(main())
