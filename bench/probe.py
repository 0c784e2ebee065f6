"""The parts of a benchmark run that need a fresh process.

Usage, from the repository root:

    python3 bench/probe.py setup WORKLOAD MODULE...
    python3 bench/probe.py pass WORKLOAD SEED THREADS

``setup`` times importing the corelat MODULEs the workload uses plus the
lazy set-up it needs before its first operation.  It prints those seconds
and the median of four compile calibrations (bench/speed.py) taken right
after.  The benchmark's own modules are imported outside the clock.

``pass`` sets the workload up, runs one timed pass of its operations for
SEED with CORELAT_THREADS=THREADS, judges every output, and prints one JSON
object: the pass's times, the peak resident memory of the process and its
pool workers, the pool workers' CPU seconds, and the judged operation
counts.  Every pass runs in a process of its own, so no cache that corelat
keeps can carry from one pass into the next, and the memory figure holds
corelat and one pass, not the run around it.

Linux carries the resident size of the process that spawns a child into the
child's ru_maxrss, through fork and exec alike.  A pass started straight
from run.py would therefore report at least run.py's own size, which grows
with the samples it gathers.  So ``pass`` only spawns the process that runs
the pass and waits for it: started from this small process, that one
reports its own size.
"""

import os
import sys
import time
from array import array

BENCH = os.path.dirname(os.path.abspath(__file__))
CALIBRATE_EVERY_S = 0.1         # of operation time between calibration loops


def _add_paths():
    sys.path[:0] = [os.path.abspath("src"), BENCH]


def run_pass(workload, ops, judge, rec=None):
    """Run every operation once, with calibration loops in between.

    Each operation's latency is scaled by the calibrations on either side of
    the stretch of operations it belongs to.  In a traced pass each
    operation is a root span, listed in "op_spans" as (key, span index).
    """
    import speed
    clock = time.perf_counter
    raw, bounds, cals, op_spans = array("d"), [0], [speed.calibrate()], []
    since = 0.0
    for op in ops:
        if since >= CALIBRATE_EVERY_S:
            bounds.append(len(raw))
            cals.append(speed.calibrate())
            since = 0.0
        span = rec.begin("op") if rec is not None else None
        start = clock()
        try:
            output, error = workload.run(op), None
        except Exception as exc:  # a failing operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        latency = clock() - start
        if rec is not None:
            rec.end(span)
            op_spans.append((op[0], span))
        raw.append(latency)
        since += latency
        judge.add(op, output, error)
    bounds.append(len(raw))
    cals.append(speed.calibrate())
    scaled = array("d")
    for k in range(len(cals) - 1):
        factor = speed.REFERENCE_S / ((cals[k] + cals[k + 1]) / 2)
        scaled.extend(x * factor for x in raw[bounds[k]:bounds[k + 1]])
    return {"wall": sum(scaled), "raw_wall": sum(raw), "latencies": scaled,
            "raw_latencies": raw, "calibrations": cals, "op_spans": op_spans}


def setup_probe(name, modules):
    import importlib
    _add_paths()
    start = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name]({})
    begin = time.perf_counter()
    workload.setup()
    elapsed = (imported - start) + (time.perf_counter() - begin)
    import statistics
    import speed
    print(elapsed, statistics.median(speed.calibrate_compile() for _ in range(4)))


def pass_probe(name, seed, threads):
    import importlib
    import json
    import random
    import resource
    _add_paths()
    import workloads
    os.environ["CORELAT_THREADS"] = str(threads)
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh).get(name, {})
    workload = workloads.WORKLOADS[name](reference)
    for module in workload.imports:
        importlib.import_module(module)
    workload.setup()
    ops = workload.make_ops(random.Random(seed))
    judge = workloads.Judge(workload)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = run_pass(workload, ops, judge)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    judge.finish()
    del result["op_spans"]
    result.update(
        latencies=list(result["latencies"]), raw_latencies=list(result["raw_latencies"]),
        rss_kib=usage.ru_maxrss + after.ru_maxrss,
        pool_cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        attempted=judge.attempted, failed=judge.failed,
        reasons=dict(list(judge.reasons.items())[:5]))
    print(json.dumps(result))


def spawn_pass(args):
    """Run the pass in a child of this process and exit with its exit code."""
    argv = [sys.executable, os.path.abspath(__file__), "run-pass", *args]
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup_probe(sys.argv[2], sys.argv[3:])
    elif sys.argv[1] == "pass":
        spawn_pass(sys.argv[2:])
    else:
        pass_probe(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
