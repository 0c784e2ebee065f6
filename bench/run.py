"""The corelat benchmark: run one workload, check every output, print metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric, from a run that also traces the layers named in
bench/workloads.py.  The line before it records the run: git sha, source
digest, Python version, CPU count, CORELAT_THREADS, seed, sample counts and
the raw (unscaled) times.  Every timed pass and every set-up probe runs in a
fresh process (bench/probe.py).  Times are reported at the reference speed of
bench/speed.py.  Spans of a traced run are written to bench/out/.
See bench/README.md.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import probe
import spans
import speed

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 15
MAX_PASSES = 8
EVALUATION = ("dynkin.simple_root_coefficients", "atomic.atomic_length0",
              "atomic.atomic_length_i", "atomic.extended_atomic_length", "atomic.in_lattice")


def corelat_threads():
    """CORELAT_THREADS for pooled workloads: the environment's value, else nproc.

    The CLI silently reads a non-integer as 1, so one is refused here.
    """
    raw = os.environ.get("CORELAT_THREADS")
    if raw is None:
        return len(os.sched_getaffinity(0))
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        sys.exit(f"error: CORELAT_THREADS={raw!r} is not a positive integer")
    return value


def tally_pass(tally, done):
    """Add one pass's judged operations to the run's tally."""
    tally["attempted"] += done["attempted"]
    tally["failed"] += done["failed"]
    for key, reason in done["reasons"].items():
        tally["reasons"].setdefault(key, reason)


def run_probe(args):
    """Stdout of bench/probe.py run with args in a fresh process.

    The probe runs in a session of its own, so that on a timeout the process
    it spawns and any pool workers are stopped with it.
    """
    with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            sys.exit(f"error: probe {' '.join(args)} timed out")
    if proc.returncode != 0:
        sys.exit(f"error: probe {' '.join(args)} failed:\n{err}")
    return out


def run_phase(workload, seed, seconds, threads, tally):
    """Passes for about `seconds` at reference speed, each in a fresh process.

    The first pass fixes how many, so the count does not follow the machine's
    speed.  MAX_PASSES caps it: every pass pays a process start, set-up and
    output checks, which must not outgrow the run when corelat gets faster.
    """
    def one_pass():
        done = json.loads(run_probe(["pass", workload.name, str(seed), str(threads)])
                          .splitlines()[-1])
        tally_pass(tally, done)
        return done

    passes = [one_pass()]
    count = min(MAX_PASSES, max(1, round(seconds / passes[0]["wall"])))
    passes += [one_pass() for _ in range(count - 1)]
    return passes


def setup_seconds(workload):
    """Median set-up seconds of fresh processes, scaled and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        elapsed, cal = (float(x) for x in
                        run_probe(["setup", workload.name, *workload.imports]).split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * speed.REFERENCE_COMPILE_S / cal)
    return statistics.median(scaled), statistics.median(raw)


def percentile_ms(latencies, q):
    if q == 50:
        return statistics.median(latencies) * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(workload, seed, seconds, threads, tally, record):
    setup_s, raw_setup_s = setup_seconds(workload)
    passes = run_phase(workload, seed, seconds, threads if workload.pooled else 1, tally)
    latencies = [x for p in passes for x in p["latencies"]]
    raw_latencies = [x for p in passes for x in p["raw_latencies"]]
    p90 = percentile_ms(latencies, 90)
    record.update(
        ops_per_pass=len(passes[0]["latencies"]), passes=len(passes),
        op_samples=len(latencies),
        samples_above_p90=sum(1 for x in latencies if x * 1e3 > p90),
        calibration_s_median=statistics.median(c for p in passes for c in p["calibrations"]),
        rss_mb_per_pass=[p["rss_kib"] / 1024 for p in passes],
        raw={"wall_s": statistics.median(p["raw_wall"] for p in passes),
             "op_p50_ms": percentile_ms(raw_latencies, 50),
             "op_p90_ms": percentile_ms(raw_latencies, 90),
             "setup_s": raw_setup_s})
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p90_ms": p90,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["rss_kib"] for p in passes) / 1024,
        "pass_ratio": (tally["attempted"] - tally["failed"]) / tally["attempted"],
    }


def per_layer(workload, seed, seconds, threads, tally, record, layer_names):
    """Untraced phases in fresh processes (pooled when the workload is, then
    serial), then one traced serial pass in this process.

    Per-layer counts and seconds are those of the traced pass; seconds are
    scaled by its speed factor.  The traced pass is serial because spans
    recorded in pool workers would be lost.
    """
    from workloads import Judge, instrument

    def traced(rec, fn, *args):
        try:
            instrument(rec)
            return fn(*args)
        finally:
            rec.restore()

    phases = 3 if workload.pooled else 2
    out = {"cli.pool_cpu_s": 0.0, "cli.pool_utilization": 0.0}
    if workload.pooled:
        workers = min(threads, 8)       # the CLI caps its pool at 8 workers
        pooled = run_phase(workload, seed, seconds / phases, threads, tally)
        cpu = sum(p["pool_cpu_s"] for p in pooled)
        factor = sum(p["wall"] for p in pooled) / sum(p["raw_wall"] for p in pooled)
        out["cli.pool_cpu_s"] = cpu * factor / len(pooled)
        out["cli.pool_utilization"] = cpu / (workers * sum(p["raw_wall"] for p in pooled))
    serial = run_phase(workload, seed, seconds / phases, 1, tally)

    os.environ["CORELAT_THREADS"] = "1"
    for module in workload.imports:
        importlib.import_module(module)
    setup_rec = spans.Recorder()
    traced(setup_rec, workload.setup)
    ops = workload.make_ops(random.Random(seed))
    judge = Judge(workload)
    rec = spans.Recorder()
    t = traced(rec, probe.run_pass, workload, ops, judge, rec)
    judge.finish()
    tally_pass(tally, {"attempted": judge.attempted, "failed": judge.failed,
                       "reasons": judge.reasons})

    scale = t["wall"] / t["raw_wall"]
    per = rec.per_name()
    for name in layer_names:
        base, _, field = name.rpartition(".")
        if field == "calls" and base in per:
            out[name] = per[base][0]
        elif field == "self_s" and base in per:
            out[name] = per[base][1] * scale
    out.update(rec.counts)
    if rec.counts["linalg.ball_points"]:
        out["linalg.level_yield"] = (rec.counts["linalg.level_points"]
                                     / rec.counts["linalg.ball_points"])

    def share(*names):
        return sum(per[n][1] for n in names if n in per) / t["raw_wall"]

    out["dynkin.lookup_type.self_s"] = setup_rec.per_name().get(
        "dynkin.lookup_type", (0, 0.0))[1]
    out["trace.wall_s"] = t["wall"]
    out["trace.overhead"] = t["wall"] / statistics.median(p["wall"] for p in serial) - 1
    out["share.solver"] = share("diophantine.solve_diagonal")
    out["share.enumerator"] = share("linalg.enumerate_quadratic_level")
    out["share.evaluation"] = share(*EVALUATION)
    record.update(ops_per_pass=len(ops), serial_passes=len(serial),
                  crosscheck=workload.crosscheck(ops, serial, t, rec, out))
    spans.write_spans(BENCH / "out" / f"trace-{workload.name}-seed{seed}.json",
                      {"setup": setup_rec, "pass": rec})
    return {name: out.get(name, 0.0) for name in layer_names}


def source_sha256(src):
    h = hashlib.sha256()
    for path in sorted((src / "corelat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha(root):
    """HEAD of the checkout when it is the top of a git work tree, else None."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "corelat" / "__init__.py").is_file():
        sys.exit(f"error: no corelat sources under {src}; run from the repository root")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    threads = corelat_threads()
    sys.path[:0] = [str(src), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    reference = json.loads((BENCH / "reference.json").read_text())
    workload = workloads.WORKLOADS[args.workload](reference.get(args.workload, {}))
    tally = {"attempted": 0, "failed": 0, "reasons": {}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "git_sha": git_sha(root),
              "src_sha256": source_sha256(src), "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "corelat_threads": threads if workload.pooled else 1}
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(workload, args.seed, args.seconds, threads, tally, record,
                           [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(workload, args.seed, args.seconds, threads, tally, record)
    record["failures"] = dict(list(tally["reasons"].items())[:5])
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
