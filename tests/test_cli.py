import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corelat import atomic, cli, diophantine, dynkin, linalg, param

from golden_data import (ATOMIC_LENGTH_SHA256, CONJECTURE_A3_JSON_3, ENUMERATE_SHA256,
                         FAIL_SWEEPS, SOLVE_SHA256, SWEEP_SHA256, TABLE_12N7, TABLE_40N10,
                         TABLE_6N7, TABLE_8N1, TABLE_JSON_SHA256, VERIFY_JSON)
from oracles import enumerate_command, root_outcome


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def render_tuple_cell(tuples):
    return ";".join("(" + ",".join(str(x) for x in t) + ")" for t in tuples)


def render_partition_cell(partitions):
    return ";".join(",".join(str(p) for p in parts) if parts else "-"
                    for parts in partitions)


def expected_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def test_enumerate_verb():
    code, out = run_cli(["enumerate", "--type", "C2_1", "--weight", "L0", "--N", "40"])
    assert code == 0
    assert out == expected_csv(
        ["type", "weight", "lattice", "N", "coords"],
        [["C2_1", "L0", "M", "40", "(-2,-2)"],
         ["C2_1", "L0", "M", "40", "(-1,3)"],
         ["C2_1", "L0", "M", "40", "(1,-3)"]])


def test_enumerate_json():
    code, out = run_cli(["enumerate", "--type", "A2_1", "--N", "6", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["elements"] == [["1", "1", "-2"], ["2", "-1", "-1"]]


@pytest.mark.parametrize("token,level", [("1_0", "10"), ("010", "10"), (" 10 ", "10"),
                                         ("10.0", "10"), ("2.50", "5/2")])
def test_enumerate_prints_the_level_it_enumerated(token, level):
    # the N column and field give the level read from --N, not its spelling
    code, out = run_cli(["enumerate", "--type", "A2_1", "--N", token])
    assert code == 0
    # level 10 of A2_1 holds two points; no level of it is fractional
    assert [row[3] for row in csv.reader(io.StringIO(out))][1:] == [level] * 2 * (level == "10")
    code, out = run_cli(["enumerate", "--type", "A2_1", "--N", token, "--format", "json"])
    assert code == 0
    assert json.loads(out)["N"] == level


def test_atomic_length_verb():
    code, out = run_cli(["atomic-length", "--type", "C2_1", "--coords", "1,-3"])
    assert code == 0
    assert out.splitlines()[1].endswith("40")
    code, out = run_cli(["atomic-length", "--type", "C2_1", "--weight", "L1",
                         "--coords", "1/2,1/2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == "2"


def atomic_length_argvs(type_id):
    """The atomic-length commands ATOMIC_LENGTH_SHA256 hashes for a type, in
    its order."""
    t = dynkin.lookup_type(type_id)
    total = tuple(map(sum, zip(*t.m_basis)))
    for weight in ("L0", "L1"):
        for point in (t.m_basis[0], total, tuple(-x for x in total)):
            coords = ",".join(str(Fraction(x)) for x in point)
            for fmt in ("csv", "json"):
                yield ["atomic-length", "--type", type_id, "--weight", weight,
                       f"--coords={coords}", "--format", fmt]


@pytest.mark.parametrize("type_id", sorted(ATOMIC_LENGTH_SHA256))
def test_atomic_length_is_byte_identical(type_id):
    digest = hashlib.sha256()
    for argv in atomic_length_argvs(type_id):
        code, out = run_cli(argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == ATOMIC_LENGTH_SHA256[type_id]


def test_atomic_length_golden_covers_the_evaluation_types():
    assert list(ATOMIC_LENGTH_SHA256) == dynkin.all_type_ids(4) + ["E6_1", "E7_1", "E8_1"]


def test_solve_verb():
    code, out = run_cli(["solve", "--case", "G21", "--N", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 25
    assert data["solutions"] == [[-5, 0], [5, 0]]


def test_verify_verb_exit_codes():
    code, out = run_cli(["verify", "--case", "C2", "--max-N", "8"])
    assert code == 0
    assert out.count("PASS") == 9
    code, out = run_cli(["verify", "--case", "HYP:C3_1", "--N", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["status"] == "PASS"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["table", "--figure", "nope"])
    assert err.value.code == 2
    code, _ = run_cli(["verify", "--case", "bogus", "--N", "1"])
    assert code == 2


# spellings that int() reads as A2_1; only the canonical one names the type
NON_CANONICAL_IDS = ["A02_1", "A+2_1", "A 2_1", "A2_ 1", "A\u0662_1", "A2_1\n"]


@pytest.mark.parametrize("argv", [
    ["atomic-length", "--type", "C2_1", "--coords", "1"],
    ["atomic-length", "--type", "C2_1", "--weight", "L1", "--coords", "1,2,3"],
    ["atomic-length", "--type", "C2_1", "--coords", "1/0,1"],
    ["atomic-length", "--type", "C2_1", "--coords", "1e999999999,1"],
    ["atomic-length", "--type", "A2_1", "--coords", "1,1,1"],
    ["enumerate", "--type", "A2_1", "--N", "1/0"],
    ["solve", "--case", "C2", "--N", "-1"],
    ["table", "--figure", "6N+7", "--max-N", "-1"],
    ["verify", "--case", "C2", "--N", "-1"],
    ["verify", "--case", "C2", "--max-N", "-1"],
    ["conjecture-a3", "--max-N", "-1"],
    ["verify", "--case", "HYP:B0_1", "--N", "0"],
    ["verify", "--case", "HYP:C0_1", "--N", "0"],
    ["verify", "--case", "HYP:A0_2", "--N", "0"],
    ["verify", "--case", "HYP:D0_2", "--N", "0"],
    ["verify", "--case", "HYP:D1_2", "--N", "0"],
    ["solve", "--case", "HYP:B0_1", "--N", "0"],
    *[["enumerate", "--type", type_id, "--N", "2"] for type_id in NON_CANONICAL_IDS],
    ["atomic-length", "--type", "A02_1", "--coords", "1,-1,0"],
    ["verify", "--case", "HYP:C03_1", "--N", "1"],
    ["solve", "--case", "HYP:C3_01", "--N", "1"],
    # rank labels above dynkin.MAX_RANK_LABEL are refused before a type is built
    ["atomic-length", "--type", "A51_1", "--coords", "1"],
    ["atomic-length", "--type", "A100000_1", "--coords", "1"],
    ["enumerate", "--type", "C200_1", "--N", "1"],
    ["verify", "--case", "HYP:C51_1", "--N", "0"],
    ["solve", "--case", "HYP:A101_2", "--N", "0"],
])
def test_boundary_violations_are_usage_errors(argv, capsys):
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_n_with_max_n(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--case", "A2", "--N", "0", "--max-N", "3"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_not_in_root_span_message_reads_back_as_coords(capsys):
    code, _ = run_cli(["atomic-length", "--type", "A2_1", "--coords", "1/2,1,-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: 1/2,1,-1 is not in the root span of A2_1\n"


def assert_exit_contract(argv):
    """Exit 0, 1 or 2, never a traceback, stdout exactly on exit 0, and the
    outcome of the root parser's parse of the whole argv."""
    code, out, err = outcome(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert (code == 0) == (out != "")
    assert (code, out, err) == root_outcome(argv)


# type id -> coordinate count (None: not a supported type)
FUZZ_TYPES = {"A1_1": 2, "A2_1": 3, "C2_1": 2, "G2_1": 3, "A4_2": 2, "D4_3": 3, "E6_1": 8,
              "E8_1": 8, "": None, "A0_1": None, "X2_1": None, "A2": None, "A2_9": None,
              "E9_1": None, "A-1_1": None, "C2_1_1": None, "a2_1": None}
FUZZ_TOKENS = ["0", "1", "-3", "1/2", "-7/3", "1/0", "0/0", "nan", "inf", "", " ", "x",
               "1e999999999", "-1e-999999999", "1e4300", "2e3", "1.5", "1_000", "1/2e3", "--1"]
fraction_tokens = st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 50))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), weight=st.sampled_from(["L0", "L1"]),
       fmt=st.sampled_from(["csv", "json"]))
def test_atomic_length_fuzz_keeps_the_exit_contract(data, weight, fmt):
    type_id = data.draw(st.sampled_from(sorted(FUZZ_TYPES)))
    dim = FUZZ_TYPES[type_id]
    count = data.draw(st.integers(0, 9) if dim is None else st.sampled_from([dim, dim, dim - 1, 9]))
    tokens = data.draw(st.lists(fraction_tokens, min_size=count, max_size=count))
    if tokens and data.draw(st.booleans()):
        tokens[data.draw(st.integers(0, count - 1))] = data.draw(st.sampled_from(FUZZ_TOKENS))
    assert_exit_contract(["atomic-length", f"--type={type_id}", f"--coords={','.join(tokens)}",
                          "--weight", weight, "--format", fmt])


def mostly(common, odd):
    """A value drawn from common at least half the time, else from common + odd."""
    return st.one_of(st.sampled_from(common), st.sampled_from(common + odd))


def option(name, values):
    """The argv words of a flag: the flag and a drawn value."""
    return values.map(lambda v: [f"{name}={v}"])


def optional(name, values):
    return st.one_of(st.just([]), option(name, values))


# hyperoctahedral types of rank <= 3; rank 0, non-canonical spellings, no pipeline
FUZZ_CASES = mostly(list(cli.VERIFY_CASES) + ["HYP:" + type_id for type_id in [
    "B1_1", "B2_1", "B3_1", "C1_1", "C2_1", "C3_1", "A1_2", "A3_2", "A4_2", "A5_2", "A6_2",
    "D2_2", "D3_2", "D4_2"]],
    ["HYP:B0_1", "HYP:D1_2", "HYP:C03_1", "HYP:C3_01", "HYP:C3_1\n", "HYP:E6_1", "HYP:",
     "bogus", "c2", ""])
FUZZ_LEVELS = mostly([str(n) for n in range(7)], ["-1", "", "x", "1/2", "1e3", "+2", "0x3"])
FUZZ_ARGVS = {
    "enumerate": st.tuples(
        option("--type", mostly([t for t, dim in FUZZ_TYPES.items() if dim],
                                [t for t, dim in FUZZ_TYPES.items() if not dim]
                                + NON_CANONICAL_IDS)),
        optional("--weight", st.sampled_from(["L0", "L1"])),
        optional("--lattice", st.sampled_from(["M", "L"])),
        option("--N", mostly([str(n) for n in range(-1, 7)] + ["1/2", "7/2", "-5/3"],
                             ["1/0", "nan", "inf", "", "x", "6e0", "1_0"]))),
    "solve": st.tuples(option("--case", FUZZ_CASES), option("--N", FUZZ_LEVELS)),
    "verify": st.tuples(option("--case", FUZZ_CASES),
                        optional("--N", FUZZ_LEVELS), optional("--max-N", FUZZ_LEVELS)),
    "table": st.tuples(option("--figure", mostly(sorted(cli.FIGURES), ["nope", ""])),
                       optional("--max-N", FUZZ_LEVELS)),
    "conjecture-a3": st.tuples(optional("--max-N", FUZZ_LEVELS)),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(sorted(FUZZ_ARGVS)),
       fmt=st.sampled_from(["csv", "json"]))
def test_command_fuzz_keeps_the_exit_contract(data, command, fmt):
    words = data.draw(FUZZ_ARGVS[command])
    assert_exit_contract([command] + [w for part in words for w in part] + ["--format", fmt])


def test_report_failure_exit_code():
    from corelat.param import Report
    reports = [Report("X", 0, "PASS", {}), Report("X", 1, "FAIL", {}, {"w": 1})]
    out = io.StringIO()
    assert cli._report_output(reports, "csv", out) == 1
    assert "FAIL" in out.getvalue()


@pytest.mark.parametrize("case_id,change,argv,error", [
    # an A2ext phi whose images leave the C6 parity domain
    ("A2ext", dict(phi_map=param.AffineMap(((3, 6), (3, 0)), (0, -1))),
     ["verify", "--case", "A2ext", "--N", "1"],
     "NonIntegralImage: (3,2) is outside the parity domain"),
    # a form C6 does not preserve
    ("A2", dict(form=(1, 2)), ["verify", "--case", "A2", "--max-N", "1"],
     "NotClosed: the form (1, 2) is not invariant under C6"),
    # an odd right-hand side puts U(48N+31) outside the G_A3 parity domain
    ("A3", dict(b=31), ["conjecture-a3", "--max-N", "0"],
     "NonIntegralImage: (2,0,-3) is outside the parity domain"),
])
def test_undecidable_level_is_a_fail_report(monkeypatch, capsys, case_id, change, argv, error):
    monkeypatch.setitem(param.CASES, case_id,
                        dataclasses.replace(param.CASES[case_id], **change))
    for fmt in ("csv", "json"):
        code = cli.main(argv + ["--format", fmt])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert out == FAIL_SWEEPS[tuple(argv + ["--format", fmt])]
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        assert rows and all(row["status"] == "FAIL" for row in rows)
        witness = rows[0]["witness"] if fmt == "json" else json.loads(rows[0]["witness"])
        assert witness == {"reason": "level not decided", "error": error}


def test_a_layer_map_off_the_integers_fails_every_level(monkeypatch, capsys):
    # the identity phi on C2L1 is refused when its layer map is built, so
    # each level, the empty N = 4 too, is a FAIL row with exit 1 and no error
    monkeypatch.setitem(param.CASES, "C2L1", dataclasses.replace(
        param.CASES["C2L1"], phi_map=param.AffineMap(((1, 0), (0, 1)), (0, 0))))
    error = ("NonIntegralImage: case C2L1: layer 0 of phi is not an integer map"
             " (its entries are not all divisible by 2)")
    for n in range(5):
        assert param.verify_case("C2L1", n).witness == {"reason": "level not decided", "error": error}
    for fmt in ("csv", "json"):
        code = cli.main(["verify", "--case", "C2L1", "--max-N", "4", "--format", fmt])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        assert [row["status"] for row in rows] == ["FAIL"] * 5
        witness = rows[4]["witness"] if fmt == "json" else json.loads(rows[4]["witness"])
        assert witness == {"reason": "level not decided", "error": error}


def test_seed_flag_accepted():
    code_a, out_a = run_cli(["enumerate", "--type", "A2_1", "--N", "6"])
    code_b, out_b = run_cli(["enumerate", "--type", "A2_1", "--N", "6", "--seed", "7"])
    assert code_a == code_b == 0 and out_a == out_b


def golden_8n1():
    header = ["N", "M_prime", "phi_M_prime", "L_minus_M_prime",
              "phi_L_minus_M_prime", "solutions"]
    rows = []
    for n in sorted(TABLE_8N1):
        m, phim, rest, phirest, sols = TABLE_8N1[n]
        rows.append([str(n), render_tuple_cell(m), render_tuple_cell(phim),
                     render_tuple_cell(rest), render_tuple_cell(phirest),
                     render_tuple_cell(sols)])
    return expected_csv(header, rows)


def golden_simple(table, header):
    rows = []
    for n in sorted(table):
        b, phi, sols = table[n]
        rows.append([str(n), render_tuple_cell(b), render_tuple_cell(phi),
                     render_tuple_cell(sols)])
    return expected_csv(header, rows)


def golden_12n7():
    header = ["N", "partitions", "B", "phi", "solutions"]
    rows = []
    for n in sorted(TABLE_12N7):
        parts, b, phi, sols = TABLE_12N7[n]
        rows.append([str(n), render_partition_cell(parts), render_tuple_cell(b),
                     render_tuple_cell(phi), render_tuple_cell(sols)])
    return expected_csv(header, rows)


def test_golden_table_8n1():
    code, out = run_cli(["table", "--figure", "8N+1", "--max-N", "14"])
    assert code == 0
    assert out == golden_8n1()


def test_golden_table_40n10():
    code, out = run_cli(["table", "--figure", "40N+10", "--max-N", "6"])
    assert code == 0
    assert out == golden_simple(TABLE_40N10, ["N", "B", "phi", "solutions"])


def test_golden_table_6n7():
    code, out = run_cli(["table", "--figure", "6N+7", "--max-N", "5"])
    assert code == 0
    assert out == golden_simple(TABLE_6N7, ["N", "B", "phi", "solutions"])


def test_golden_table_12n7():
    code, out = run_cli(["table", "--figure", "12N+7", "--max-N", "19"])
    assert code == 0
    assert out == golden_12n7()


@pytest.mark.parametrize("figure", sorted(TABLE_JSON_SHA256))
def test_table_json_is_byte_identical(figure):
    code, out = run_cli(["table", "--figure", figure, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_JSON_SHA256[figure]


def test_table_default_ranges():
    code, out = run_cli(["table", "--figure", "6N+7"])
    assert code == 0
    assert out == golden_simple(TABLE_6N7, ["N", "B", "phi", "solutions"])


@pytest.mark.parametrize("case_id,n", sorted(VERIFY_JSON))
def test_verify_json_golden(case_id, n):
    code, out = run_cli(["verify", "--case", case_id, "--N", str(n), "--format", "json"])
    assert code == 0
    assert out == VERIFY_JSON[case_id, n]


def test_conjecture_json_golden():
    code, out = run_cli(["conjecture-a3", "--max-N", "3", "--format", "json"])
    assert code == 0
    assert out == CONJECTURE_A3_JSON_3


@pytest.mark.parametrize("argv", sorted(SWEEP_SHA256))
def test_long_sweeps_are_byte_identical(argv):
    code, out = run_cli(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[argv]


@pytest.mark.parametrize("case_id,fmt", sorted(SOLVE_SHA256))
def test_solve_levels_are_byte_identical(case_id, fmt):
    # solve prints U as the solver returns it, sorted, with no second sort
    digest = hashlib.sha256()
    for n in range(41):
        code, out = run_cli(["solve", "--case", case_id, "--N", str(n), "--format", fmt])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == SOLVE_SHA256[case_id, fmt]


@pytest.mark.parametrize("argv", sorted(ENUMERATE_SHA256))
def test_enumerate_levels_are_byte_identical(argv):
    code, out = run_cli(list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[argv]


@pytest.mark.parametrize("case_id", ["HYP:B1_1", "HYP:C1_1", "HYP:A1_2", "HYP:D2_2"])
def test_rank_one_hyperoctahedral_cases_are_accepted(case_id):
    # hyperoctahedral rank 1 lies below the type table's minimum; the family
    # polynomials still apply there, so these cases run and PASS
    code, out = run_cli(["verify", "--case", case_id, "--max-N", "10", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert [item["status"] for item in data] == ["PASS"] * 11
    assert sum(item["counts"]["solutions"] for item in data) > 0


def test_hyp_b1_level_six():
    code, out = run_cli(["verify", "--case", "HYP:B1_1", "--N", "6", "--format", "json"])
    assert code == 0
    counts = json.loads(out)[0]["counts"]
    assert counts["solutions"] == 2 and counts["orbits"] == 1


@pytest.mark.parametrize("argv,levels", [
    (["verify", "--case", "HYP:C7_1", "--N", "0"], 1),
    (["verify", "--case", "HYP:C6_1", "--max-N", "3"], 4)])
def test_high_rank_hyperoctahedral_verify(argv, levels):
    # ranks 6 and 7 are decided on orbit representatives, in well under a second
    code, out = run_cli(argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[2] for row in rows] == ["PASS"] * levels


def test_conjecture_verb():
    code, out = run_cli(["conjecture-a3", "--max-N", "2", "--format", "json"])
    assert code == 0
    assert all(item["status"] == "PASS" for item in json.loads(out))


def readme_commands():
    """The argv of each `corelat ...` line in the sh block of README's CLI
    section, its trailing comment dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("corelat ")]


def test_readme_cli_examples_exit_zero():
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        assert run_cli(argv)[0] == 0, argv


def child_env():
    """The environment of a child that imports corelat from where this
    process found it."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "corelat.cli", "solve", "--case", "C2", "--N", "40"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "325" in proc.stdout


def test_a_closed_stdout_exits_2_without_a_traceback():
    # the reader takes the header and closes the pipe; the sweep's next
    # flush finds it closed, long before level 3000
    proc = subprocess.Popen(
        [sys.executable, "-m", "corelat.cli", "verify", "--case", "A2", "--max-N", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert proc.stdout.readline() == b"case,N,status,solutions,orbits,phi_images,witness\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2
    assert err == b"error: stdout was closed before the output ended\n"


class ClosedOutput(io.StringIO):
    """An output whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_2_in_process(monkeypatch):
    # an in-memory stdout has no file descriptor to point at os.devnull
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", ClosedOutput())
    monkeypatch.setattr(sys, "stderr", err)
    assert cli.main(["verify", "--case", "A2", "--max-N", "3"]) == 2
    assert err.getvalue() == "error: stdout was closed before the output ended\n"


class FlushLog(io.StringIO):
    """An output that logs ("flush", the text written so far) at each flush."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def flush(self):
        self.log.append(("flush", self.getvalue()))


def through_row(text, fmt, n):
    """The output text up to the end of row n: the header and n + 1 CSV lines,
    or the first n + 1 JSON values, which "},{" separates."""
    if fmt == "csv":
        return "".join(text.splitlines(keepends=True)[:n + 2])
    return "},{".join(text.split("},{")[:n + 1]) + "}"


# The hook is the per-level call each sweep makes: verify and conjecture-a3
# decide each LevelData of param.band_levels, and the table makes each one.
# The ids name the per-level functions the sweeps called before they ran in
# bands.
@pytest.mark.parametrize("argv,check,level_of", [
    pytest.param(["verify", "--case", "A2", "--max-N", "3"], "decide",
                 lambda level, claim: level.n, id="argv0-verify_case"),
    pytest.param(["conjecture-a3", "--max-N", "3"], "decide",
                 lambda level, claim: level.n, id="argv1-a3_conjecture_check"),
    pytest.param(["table", "--figure", "12N+7", "--max-N", "3"], "LevelData",
                 lambda case, n: n, id="argv2-LevelData"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweeps_write_and_flush_each_level_before_deciding_the_next(monkeypatch, argv, check,
                                                                     level_of, fmt):
    log = []
    decide = getattr(param, check)

    def logged(*args):
        log.append(("decide", level_of(*args)))
        return decide(*args)

    monkeypatch.setattr(param, check, logged)
    out = FlushLog(log)
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", fmt]) == 0
    assert [n for event, n in log if event == "decide"] == [0, 1, 2, 3]
    for n in (1, 2, 3):
        flushed = [text for event, text in log[:log.index(("decide", n))] if event == "flush"]
        assert flushed[-1] == through_row(out.getvalue(), fmt, n - 1)


@pytest.mark.parametrize("argv", [
    ["verify", "--case", "A2", "--max-N"],
    ["verify", "--case", "HYP:C2_1", "--max-N"],
    ["conjecture-a3", "--max-N"],
    ["table", "--figure", "8N+1", "--max-N"],
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_sweep_flushes_every_row_of_a_band_before_the_next_band_is_walked(monkeypatch,
                                                                             argv, fmt):
    # two bands and one level of a third; each walk of the lattice shell and
    # of the group's sector logs the output flushed before it starts
    log, walks = [], []
    levels, solve_band = linalg.QuadraticForm.levels, diophantine.solve_band

    def logged(walk):
        def run(*args):
            flushed = [text for event, text in log if event == "flush"]
            walks.append((walk.__name__, args[-2] if walk is levels else args[-1][0],
                           flushed[-1] if flushed else ""))
            return walk(*args)
        return run

    monkeypatch.setattr(linalg.QuadraticForm, "levels", logged(levels))
    monkeypatch.setattr(diophantine, "solve_band", logged(solve_band))
    out = FlushLog(log)
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + [str(2 * param.BAND), "--format", fmt]) == 0
    case = param.get_case(argv[2] if argv[0] == "verify" else
                          "A3" if argv[0] == "conjecture-a3" else "C2L1")
    starts = [0, param.BAND, 2 * param.BAND]
    assert [(name, start) for name, start, _ in walks] == [
        (name, start if name == "levels" else case.equation_value(start))
        for start in starts for name in ("levels", "solve_band")]
    for name, start, flushed in walks:
        n = start if name == "levels" else (start - case.b) // case.a
        assert flushed == (through_row(out.getvalue(), fmt, n - 1) if n else "")


def test_verify_a2ext_and_a3_routes():
    code, out = run_cli(["verify", "--case", "A2ext", "--max-N", "4", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert [item["case"] for item in data] == ["A2ext"] * 5
    assert all(item["status"] == "PASS" for item in data)
    code, out = run_cli(["verify", "--case", "A3", "--max-N", "2", "--format", "json"])
    assert code == 0
    assert all(item["status"] == "PASS" for item in json.loads(out))


def test_enumerate_weight_l1_defaults_to_lattice_l():
    code, out = run_cli(["enumerate", "--type", "C2_1", "--weight", "L1", "--N", "2"])
    assert code == 0
    assert out.splitlines()[1:] == ["C2_1,L1,L,2,\"(-1/2,-1/2)\"", "C2_1,L1,L,2,\"(1/2,1/2)\""]


def test_solve_accepts_every_case_id():
    for case_id in ["A2", "A2ext", "C2", "C2L1", "D3t", "A42", "G21", "D43", "A3",
                    "HYP:C2_1", "HYP:B2_1"]:
        code, out = run_cli(["solve", "--case", case_id, "--N", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["k"] > 0


def outcome(argv):
    """Exit code (a SystemExit's too), stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def first_outcome(argv):
    """The outcome of argv as the first call of a process, on a new parser."""
    cli.build_parser.cache_clear()
    return outcome(argv)


@pytest.mark.parametrize("first,then,first_code", [
    (["verify", "--case", "A2", "--max-N", "2", "--format", "json"],
     ["verify", "--case", "A2", "--max-N", "2"], 0),
    (["enumerate", "--type", "C2_1", "--weight", "L1", "--N", "2"],
     ["enumerate", "--type", "C2_1", "--N", "40"], 0),
    (["verify", "--case", "A2", "--N", "0", "--max-N", "3"],
     ["verify", "--case", "A2", "--max-N", "3"], 2),
    (["table", "--figure", "nope"],
     ["table", "--figure", "6N+7", "--max-N", "2"], 2),
    (["verify", "--help"], ["--help"], 0),
])
def test_shared_parser_keeps_no_state_between_calls(first, then, first_code):
    alone = first_outcome(first), first_outcome(then)
    cli.build_parser.cache_clear()
    in_turn = outcome(first), outcome(then)
    assert in_turn == alone
    assert alone[0][0] == first_code and alone[1][0] == 0 and alone[1][1]


def test_main_without_argv_reads_each_calls_sys_argv(monkeypatch):
    argvs = [["solve", "--case", "G21", "--N", "3"],
             ["enumerate", "--type", "A2_1", "--N", "6", "--format", "json"]]
    expected = [first_outcome(argv) for argv in argvs]
    for argv, want in zip(argvs, expected):
        monkeypatch.setattr(sys, "argv", ["corelat"] + argv)
        assert outcome(None) == want


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["enum", "--type", "A2_1", "--N", "2"],
    ["enumerate", "--type", "A2_1"],
    ["enumerate", "--type", "A2_1", "--N", "2", "stray"],
    ["verify", "--case", "A2", "--N", "1", "--bogus", "x"],
    ["enumerate", "--type=A2_1", "--N=3"],
    ["verify", "--case", "A2", "--N", "0", "--max-N", "3"],
    ["verify", "--case", "A2", "--max", "3"],
    ["enumerate", "--type", "A2_1", "--N", "2", "--form", "json"],
    ["verify", "--case", "A2", "--N", "1", "-h"],
    ["--format", "json", "verify", "--case", "A2", "--N", "1"],
    ["verify", "--", "--case", "A2"],
    ["atomic-length", "--type", "C2_1", "--coords", "1,-3", "--weight", "L1"],
    ["solve", "--case", "G21", "--N", "3", "--format", "json"],
    ["table", "--figure", "6N+7", "--max-N", "2", "--seed", "7"],
    ["conjecture-a3", "--max-N", "2"],
    ["verify", "--case", "bogus", "--N", "1"],
])
def test_dispatch_matches_the_root_parse(argv):
    assert outcome(argv) == root_outcome(argv)


def test_a_well_formed_command_never_reaches_the_root_parser(monkeypatch):
    calls, depth = [], []

    def counted(method):
        def call(*args, **kwargs):
            if not depth:           # parse_args calls parse_known_args itself
                calls.append(method.__name__)
            depth.append(method)
            try:
                return method(*args, **kwargs)
            finally:
                depth.pop()
        return call

    cli.build_parser.cache_clear()
    try:
        root = cli.build_parser()
        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(root, name, counted(getattr(root, name)))
        for argv in (["enumerate", "--type", "A2_1", "--N", "2", "--format", "json"],
                     ["verify", "--case", "A2", "--max-N", "2"]):
            assert outcome(argv)[0] == 0 and calls == []
        assert outcome(["enumerate", "--type", "A2_1", "--N", "2", "stray"])[0] == 2
        assert calls == ["parse_args"]
    finally:
        cli.build_parser.cache_clear()


def test_main_builds_one_parser_tree_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argvs = [["enumerate", "--type", "A2_1", "--N", str(n)] for n in range(10)]
    argvs += [["solve", "--case", "C2", "--N", str(n)] for n in range(10)]
    cli.build_parser.cache_clear()
    try:
        assert outcome(argvs[0])[0] == 0
        assert len(built) == 7      # the root parser and one per subcommand
        assert all(outcome(argv)[0] == 0 for argv in argvs[1:])
        assert len(built) == 7
    finally:
        cli.build_parser.cache_clear()


@pytest.mark.parametrize("type_id", [*dynkin.all_type_ids(4), "E6_1", "E7_1", "E8_1"])
def test_enumerate_matches_the_original_rendering(type_id):
    # levels 0..6, 7/2 and -1 at both weights, on M and on L (an error exit
    # where no L basis is registered), in both formats; every type meets a
    # level with points, an empty level and an error exit
    kinds = set()
    for weight, lattice, n, fmt in itertools.product(
            ("L0", "L1"), ("M", "L"), [*map(str, range(7)), "7/2", "-1"], ("csv", "json")):
        argv = ["enumerate", "--type", type_id, "--weight", weight, "--lattice", lattice,
                "--N", n, "--format", fmt]
        code, out, err = outcome(argv)
        assert (code, out, err) == enumerate_command(argv), argv
        if fmt == "csv":
            kinds.add("error" if code else "points" if out.count("\n") > 1 else "empty")
    assert kinds == {"points", "empty", "error"}


def test_enumerate_builds_no_lattice_vector(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate built a LatticeVector")

    monkeypatch.setattr(atomic, "LatticeVector", refuse)
    for argv in [("enumerate", "--type", "E8_1", "--N", "32"),
                 ("enumerate", "--type", "E8_1", "--N", "32", "--format", "json")]:
        code, out = run_cli(list(argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[argv]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_refuses_a_level_no_search_can_finish(fmt):
    # A2_1's outermost coordinate takes about 10^2000 values at N = 10^4000
    start = time.perf_counter()
    code, out, err = outcome(["enumerate", "--type", "A2_1", "--N", "1e4000", "--format", fmt])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(atomic.MAX_OUTER_VALUES) in err


def test_enumerate_searches_a_level_below_the_cap():
    # about 1.3 * 10^6 outermost values, in well under a second
    form = atomic.length_form("A2_1", 0, "M")
    assert 10 ** 6 < form.outer_values(10 ** 12) <= atomic.MAX_OUTER_VALUES
    code, out = run_cli(["enumerate", "--type", "A2_1", "--N", "1e12"])
    assert code == 0
    assert out.startswith("type,weight,lattice,N,coords\n")
