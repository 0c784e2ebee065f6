"""The four corelat benchmark workloads and the layers the traced run wraps.

A workload turns a seed into a fixed list of operations, one pass, and runs
one operation at a time through the public library or the in-process CLI
(``cli.main``).  Every output is judged twice: its digest against the one
recorded at the reference commit in ``reference.json``, and by an independent
check that runs outside the timed interval.  An operation is a tuple whose
first item is its key; the same key always means the same input.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import runpy
import statistics
from collections import Counter
from fractions import Fraction

from corelat import atomic, cores, diophantine, dynkin, linalg, param, weyl


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stratified(rng, lo, hi, k):
    """k integers from lo..hi, one drawn from each of k equal strata.

    Stratifying keeps the total work of a pass nearly the same for every
    seed, so run-to-run spread measures the machine, not the draw.
    """
    width = hi - lo + 1
    if width < k:
        raise ValueError(f"band {lo}..{hi} is narrower than {k} strata")
    return [rng.randrange(lo + width * i // k, lo + width * (i + 1) // k)
            for i in range(k)]


def run_cli(argv):
    """Exit code and stdout of one in-process CLI command."""
    from corelat import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n{buf.getvalue()}"


def cli_rows(output):
    """Exit code and CSV rows (header dropped) of a run_cli output."""
    status, _, body = output.partition("\n")
    rows = list(csv.reader(io.StringIO(body)))
    return int(status.split()[1]), rows[1:]


def _fractions(cell):
    return tuple(Fraction(x) for x in cell.strip("()").split(","))


class Judge:
    """Counts attempted and failed operations; an operation fails when it
    raises, when its output's digest differs from the recorded one, or when
    the independent check of its output fails."""

    def __init__(self, workload):
        self.workload = workload
        self.expected = {}
        self.first = {}             # key -> (op, output) of its first good run
        self.runs = Counter()
        self.bad = Counter()
        self.reasons = {}

    def add(self, op, output, error):
        key = op[0]
        self.runs[key] += 1
        if error is None:
            if key not in self.expected:
                self.expected[key] = self.workload.expected(op)
            want = self.expected[key]
            if want is None:
                error = "no recorded reference"
            elif digest(output) != want:
                error = "output differs from the recorded reference"
            elif key not in self.first:
                self.first[key] = (op, output)
        if error is not None:
            self.bad[key] += 1
            self.reasons.setdefault(key, error)

    def finish(self):
        """Run the independent checks, once per distinct operation."""
        for key, (op, output) in self.first.items():
            try:
                reason = self.workload.check(op, output)
            except Exception as exc:  # a broken output must not abort the run
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.bad[key] = self.runs[key]
                self.reasons.setdefault(key, reason)

    @property
    def attempted(self):
        return sum(self.runs.values())

    @property
    def failed(self):
        return sum(self.bad.values())


class Workload:
    name = None
    pooled = False              # runs the CLI's process pool
    imports = ("corelat",)      # corelat modules a user of the workload imports

    def __init__(self, reference):
        self.reference = reference

    def setup(self):
        """The lazy set-up a fresh process needs, once it has imported
        `imports`, before its first operation."""

    def make_ops(self, rng):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def expected(self, op):
        """Digest the output of op must have, or None when none was recorded."""
        return self.reference.get("digests", {}).get(op[0])

    def check(self, op, output):
        """Why output is wrong by an independent check, or None."""
        return None

    def crosscheck(self, ops, serial, traced, rec, out):
        """Traced-run figures to set beside the ROADMAP baseline, raw seconds.

        serial holds the untraced serial passes, traced the traced pass
        (both as probe.run_pass returns them) and rec its span recorder.
        """
        return None

    @classmethod
    def universe(cls):
        """Every operation any seed can draw, for recording digests."""
        raise NotImplementedError

    @classmethod
    def record(cls):
        wl = cls({})
        wl.setup()
        digests = {}
        for op in cls.universe():
            output = wl.run(op)
            reason = wl.check(op, output)
            if reason is not None:
                raise RuntimeError(f"{op[0]}: {reason}")
            digests[op[0]] = digest(output)
        return {"digests": digests}


class A3Conjecture(Workload):
    name = "a3-conjecture"
    MAX_N = 100

    def setup(self):
        param.a3_conjecture_check(0)

    @classmethod
    def universe(cls):
        return [(f"a3_conjecture_check {n}", n) for n in range(cls.MAX_N + 1)]

    def make_ops(self, rng):
        return self.universe()

    def run(self, op):
        return json.dumps(param.a3_conjecture_check(op[1]).to_dict(), sort_keys=True)

    def check(self, op, output):
        report = json.loads(output)
        if report["status"] != "PASS":
            return f"status {report['status']}: {report.get('witness')}"
        want = len(diophantine.solve_diagonal_meet((1, 2, 3), 48 * op[1] + 30))
        if report["counts"]["solutions"] != want:
            return f"{report['counts']['solutions']} solutions, meet-in-the-middle finds {want}"
        return None

    def crosscheck(self, ops, serial, traced, rec, out):
        last = {span for key, span in traced["op_spans"] if key == ops[-1][0]}
        solver = [end - start for name, start, end, parent in rec.spans
                  if name == "diophantine.solve_diagonal" and parent in last]
        return {f"solve_diagonal_s_at_N{self.MAX_N}": statistics.median(solver),
                "solver_share": out["share.solver"],
                f"pass_s_N0_to_{self.MAX_N}": statistics.median(p["raw_wall"] for p in serial)}


class LatticeLevels(Workload):
    name = "lattice-levels"
    imports = ("corelat", "corelat.cli")
    # (type, weight, lowest N, highest N, commands per pass).  Bands hold
    # roughly 10^2.5..10^3.5 ball points per level, so one pass is a few seconds.
    ENTRIES = (
        ("E8_1", 0, 22, 32, 8),
        ("E6_1", 0, 20, 34, 10),
        ("F4_1", 0, 60, 124, 12),
        ("A4_1", 0, 24, 48, 12),
        ("A4_1", 1, 10, 24, 12),
        ("B4_1", 0, 46, 92, 12),
        ("C4_1", 0, 60, 124, 12),
        ("C4_1", 1, 46, 92, 12),
        ("D4_1", 0, 30, 62, 12),
        ("A3_1", 1, 44, 104, 12),
        ("D5_2", 0, 46, 92, 12),
        ("E6_2", 0, 60, 124, 12),
        ("D4_3", 0, 200, 400, 10),
        ("A4_2", 0, 200, 400, 10),
    )

    @staticmethod
    def _op(type_id, weight, n):
        argv = ["enumerate", "--type", type_id, "--weight", f"L{weight}", "--N", str(n)]
        return (" ".join(argv), argv)

    def setup(self):
        for type_id, weight, *_ in self.ENTRIES:
            atomic.enumerate_atomic(type_id, weight, 0, "L" if weight else "M")

    @classmethod
    def universe(cls):
        return [cls._op(t, w, n) for t, w, lo, hi, _ in cls.ENTRIES
                for n in range(lo, hi + 1)]

    def make_ops(self, rng):
        return [self._op(t, w, n) for t, w, lo, hi, k in self.ENTRIES
                for n in stratified(rng, lo, hi, k)]

    def run(self, op):
        return run_cli(op[1])

    def check(self, op, output):
        code, rows = cli_rows(output)
        if code != 0:
            return f"exit code {code}"
        for type_id, weight, lattice, n, coords in rows:
            t = dynkin.lookup_type(type_id)
            v = _fractions(coords)
            value = (atomic.atomic_length0(t, v) if weight == "L0"
                     else atomic.atomic_length_i(t, int(weight[1:]), v))
            if value != Fraction(n):
                return f"{coords} has atomic length {value}, not {n}"
            if not atomic.in_lattice(t, v, lattice):
                return f"{coords} is not in lattice {lattice}"
        return None


class PointEval(Workload):
    name = "point-eval"
    POINTS_PER_TYPE = 80
    COEFF = 3                   # basis coefficients are drawn from -COEFF..COEFF
    CALLS = ("atomic_length0", "atomic_length_i", "extended_atomic_length", "in_lattice")

    def __init__(self, reference):
        super().__init__(reference)
        self.models = {
            (type_id, call): ([[Fraction(x) for x in row] for row in model["a"]],
                              [Fraction(x) for x in model["b"]])
            for type_id, calls in reference.get("models", {}).items()
            for call, model in calls.items()}

    @staticmethod
    def type_ids():
        return dynkin.all_type_ids(4) + ["E8_1"]

    def setup(self):
        for type_id in self.type_ids():
            t = dynkin.lookup_type(type_id)
            zero = (0,) * t.ambient_dim
            atomic.atomic_length0(t, zero)
            atomic.atomic_length_i(t, 1, zero)
            atomic.extended_atomic_length(t, atomic.weight_Lambda(t, 1), zero)
            atomic.in_lattice(t, zero)

    def make_ops(self, rng):
        ops = []
        for type_id in self.type_ids():
            t = dynkin.lookup_type(type_id)
            weight = atomic.weight_Lambda(t, 1)
            basis = t.m_basis
            for _ in range(self.POINTS_PER_TYPE):
                m = tuple(rng.randint(-self.COEFF, self.COEFF) for _ in basis)
                v = tuple(sum(c * b[d] for c, b in zip(m, basis))
                          for d in range(t.ambient_dim))
                for call in self.CALLS:
                    ops.append((f"{call} {type_id} {m}", call, t, v, m, weight))
        return ops

    def run(self, op):
        _, call, t, v, _, weight = op
        if call == "atomic_length0":
            return str(atomic.atomic_length0(t, v))
        if call == "atomic_length_i":
            return str(atomic.atomic_length_i(t, 1, v))
        if call == "extended_atomic_length":
            return str(atomic.extended_atomic_length(t, weight, v))
        return str(atomic.in_lattice(t, v))

    def crosscheck(self, ops, serial, traced, rec, out):
        by_call = {}
        for p in serial:
            for op, latency in zip(ops, p["raw_latencies"]):
                by_call.setdefault((op[1], op[2].name), []).append(latency)
        return {f"atomic_length0_us_{t}": statistics.median(by_call["atomic_length0", t]) * 1e6
                for t in ("E8_1", "A3_1")}

    def expected(self, op):
        _, call, t, _, m, _ = op
        if call == "in_lattice":
            return digest("True")
        if (t.name, call) not in self.models:
            return None
        a, b = self.models[t.name, call]
        k = len(m)
        value = (sum(a[i][j] * m[i] * m[j] for i in range(k) for j in range(k))
                 + sum(b[i] * m[i] for i in range(k)))
        return digest(str(value))

    @classmethod
    def record(cls):
        """Each call's value as a quadratic m^T a m + b.m in basis coefficients.

        The model is read off values at e_i, -e_i and e_i + e_j, so it is taken
        from the public calls themselves; a later commit must agree with it at
        every point.
        """
        models = {}
        for type_id in cls.type_ids():
            t = dynkin.lookup_type(type_id)
            weight = atomic.weight_Lambda(t, 1)
            basis = t.m_basis
            k = len(basis)
            calls = {
                "atomic_length0": lambda v: atomic.atomic_length0(t, v),
                "atomic_length_i": lambda v: atomic.atomic_length_i(t, 1, v),
                "extended_atomic_length": lambda v: atomic.extended_atomic_length(t, weight, v),
            }
            models[type_id] = {}
            for call, fn in calls.items():
                def q(m):
                    return fn(tuple(sum(c * b[d] for c, b in zip(m, basis))
                                    for d in range(t.ambient_dim)))
                unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
                plus = [q(e) for e in unit]
                minus = [q(tuple(-x for x in e)) for e in unit]
                a = [[Fraction(0)] * k for _ in range(k)]
                for i in range(k):
                    a[i][i] = (plus[i] + minus[i]) / 2
                    for j in range(i + 1, k):
                        both = q(tuple(x + y for x, y in zip(unit[i], unit[j])))
                        a[i][j] = a[j][i] = (both - plus[i] - plus[j]) / 2
                b = [(plus[i] - minus[i]) / 2 for i in range(k)]
                models[type_id][call] = {"a": [[str(x) for x in row] for row in a],
                                         "b": [str(x) for x in b]}
        return {"models": models}


class VerifySweep(Workload):
    name = "verify-sweep"
    pooled = True
    imports = ("corelat", "corelat.cli")
    SWEEPS_PER_CASE = 10
    # (case, lowest max-N, highest max-N)
    BANDS = tuple((case, 10, 30) for case in ("A2", "A2ext", "C2", "C2L1", "D3t",
                                              "A42", "G21", "D43")) + (
        ("A3", 5, 14), ("HYP:C3_1", 5, 14))
    FIGURES = ("8N+1", "40N+10", "6N+7", "12N+7")
    GOLDEN = "tests/golden_data.py"

    def __init__(self, reference):
        super().__init__(reference)
        self._meet = {}

    @staticmethod
    def _verify(case, max_n):
        argv = ["verify", "--case", case, "--max-N", str(max_n)]
        return (" ".join(argv), argv)

    @classmethod
    def _tables(cls):
        return [(f"table --figure {f}", ["table", "--figure", f], f) for f in cls.FIGURES]

    def setup(self):
        for case, *_ in self.BANDS:
            param.verify_case(case, 0)

    @classmethod
    def universe(cls):
        return [cls._verify(c, m) for c, lo, hi in cls.BANDS
                for m in range(lo, hi + 1)] + cls._tables()

    def make_ops(self, rng):
        return [self._verify(c, m) for c, lo, hi in self.BANDS
                for m in stratified(rng, lo, hi, self.SWEEPS_PER_CASE)] + self._tables()

    def run(self, op):
        return run_cli(op[1])

    def _solutions(self, case_id, n):
        case = param.get_case(case_id)
        key = (case.form, case.equation_value(n))
        if key not in self._meet:
            self._meet[key] = len(diophantine.solve_diagonal_meet(*key))
        return self._meet[key]

    def check(self, op, output):
        code, rows = cli_rows(output)
        if code != 0:
            return f"exit code {code}"
        if op[1][0] == "table":
            return self._check_table(op[2], rows)
        for case, n, status, solutions, *_ in rows:
            if status != "PASS":
                return f"{case} N={n}: {status}"
            want = self._solutions(case, int(n))
            if int(solutions) != want:
                return f"{case} N={n}: {solutions} solutions, meet-in-the-middle finds {want}"
        return None

    def _check_table(self, figure, rows):
        try:
            golden = runpy.run_path(self.GOLDEN)
        except OSError as exc:
            return f"golden tables unreadable: {exc}"
        table = golden["TABLE_" + figure.replace("+", "").upper()]

        def tuples(cell):
            return [tuple(int(x) for x in t.strip("()").split(","))
                    for t in cell.split(";")] if cell else []

        def partitions(cell):
            return [cores.parse_partition(p) for p in cell.split(";")] if cell else []

        if [int(r[0]) for r in rows] != sorted(table):
            return f"table {figure} lists levels {[r[0] for r in rows]}"
        for row in rows:
            n, cells = int(row[0]), row[1:]
            parsed = ([partitions(cells[0])] + [tuples(c) for c in cells[1:]]
                      if figure == "12N+7" else [tuples(c) for c in cells])
            if parsed != [list(x) for x in table[n]]:
                return f"table {figure} row N={n} differs from the golden table"
        return None


WORKLOADS = {wl.name: wl for wl in (A3Conjecture, LatticeLevels, PointEval, VerifySweep)}


# ---------------------------------------------------------------------------
# Layers the traced run wraps: (module, function, span name)

SPANNED = (
    (diophantine, "solve_diagonal", "diophantine.solve_diagonal"),
    (diophantine, "orbit", "diophantine.orbit"),
    (diophantine, "orbit_partition", "diophantine.orbit_partition"),
    (linalg, "enumerate_quadratic_level", "linalg.enumerate_quadratic_level"),
    (dynkin, "simple_root_coefficients", "dynkin.simple_root_coefficients"),
    (dynkin, "lookup_type", "dynkin.lookup_type"),
    (atomic, "atomic_length0", "atomic.atomic_length0"),
    (atomic, "atomic_length_i", "atomic.atomic_length_i"),
    (atomic, "extended_atomic_length", "atomic.extended_atomic_length"),
    (atomic, "in_lattice", "atomic.in_lattice"),
    (atomic, "enumerate_atomic", "atomic.enumerate_atomic"),
    (weyl, "extended_image", "weyl.extended_image"),
    (param, "verify_case", "param.verify_case"),
    (param, "lattice_points", "param.lattice_points"),
    (param, "map_p_a2", "param.phi"),
    (param, "map_p_a3", "param.phi"),
    (cores, "d4flat_from_lattice", "cores.d4flat_from_lattice"),
)

# Return-value counts: span name -> counter name
COUNTED = {
    "diophantine.solve_diagonal": "diophantine.solve_diagonal.solutions",
    "diophantine.orbit_partition": "diophantine.orbit_partition.orbits",
    "linalg.enumerate_quadratic_level": "linalg.level_points",
}


def instrument(rec):
    """Wrap every layer in SPANNED, the CLI, the ball generator and the phi maps."""
    from corelat import cli

    def counter(name):
        def add(result):
            rec.counts[name] += len(result)
        return add

    for module, attr, span in SPANNED:
        fn = getattr(module, attr)
        on_result = counter(COUNTED[span]) if span in COUNTED else None
        rec.rebind(fn, rec.traced(span, fn, on_result))
    rec.rebind(cli.main, rec.traced("cli", cli.main))
    # enumerate_quadratic_level looks the ball generator up as a module global
    rec.rebind(linalg.enumerate_quadratic_upto,
               rec.counted("linalg.ball_points", linalg.enumerate_quadratic_upto))
    # Case phi maps live in frozen dataclasses, and hyp_case builds its own
    for key, case in list(param.CASES.items()):
        rec.patch(param.CASES, key, dataclasses.replace(
            case, phi_map=rec.traced("param.phi", case.phi_map)))
    hyp_case = param.hyp_case

    def traced_hyp_case(type_id):
        case = hyp_case(type_id)
        return dataclasses.replace(case, phi_map=rec.traced("param.phi", case.phi_map))

    rec.rebind(hyp_case, traced_hyp_case)
