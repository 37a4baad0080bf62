"""tcone benchmark: time to a checked answer on three closed-loop workloads.

    python3 perfbench/run.py --workload corpus-solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/` and the shipped bundles are read from `corpus/`.  One process runs
one workload with one caller and a fixed BLAS thread count.

With `--trace 0` the run repeats whole passes over the workload's
operations while another pass fits in `--seconds`, sets the workload up
several times (the median is `setup_s`), and prints the end-to-end metrics.
With `--trace 1` it runs one untraced and one traced pass over the same
operations, whatever `--seconds` says, checks that both gave identical
results, prints the per-layer metrics and writes the spans and counters to
`perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A failed operation is one
that raised, did not converge or was rejected by a check; `correct` is
false only when the library vouched for an answer that a check rejected,
or when repeated or traced passes disagree.
"""

import os

BLAS_THREADS = 1           # the algebras have dimension at most 121
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse            # noqa: E402
import json                # noqa: E402
import resource            # noqa: E402
import statistics          # noqa: E402
import sys                 # noqa: E402
import time                # noqa: E402
from pathlib import Path   # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "tcone" / "__init__.py").is_file():
    sys.exit("no tcone sources at %s: run from the root of a checkout" % SRC)
sys.path.insert(0, str(SRC))

import workloads           # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 9
OUT_DIR = HERE / "out"


def run_pass(workload, cases, tracer=None):
    """Issue every operation back to back; returns (wall, times, outs)."""
    clock = time.perf_counter
    times, outs = [], []
    t_pass = clock()
    for case in cases:
        t0 = clock()
        try:
            if tracer is None:
                out = workload.op(case)
            else:
                with tracer.span("op"):
                    out = workload.op(case)
        except Exception as exc:   # a raised error is a failed operation
            out = exc
        times.append(clock() - t0)
        outs.append(out)
    return clock() - t_pass, times, outs


def check_pass(workload, cases, outs, tracer=None):
    """Returns ({label: [failed checks]}, wrong answers) for one pass."""
    failures, wrong = {}, 0
    for case, out in zip(cases, outs):
        if isinstance(out, Exception):
            failures[case.label] = ["raised:%s" % type(out).__name__]
            continue
        if tracer is None:
            outcome = workload.check(case, out)
        else:
            with tracer.span("check"):
                outcome = workload.check(case, out)
        if outcome.failed:
            failures[case.label] = outcome.failed
        wrong += outcome.wrong
    return failures, wrong


def fingerprints(workload, outs):
    return [repr(out) if isinstance(out, Exception)
            else workload.fingerprint(out) for out in outs]


def timed_setup(workload, seed):
    t0 = time.perf_counter()
    cases = workload.setup(seed)
    return time.perf_counter() - t0, cases


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, seed, seconds):
    setup_times = []
    dt, cases = timed_setup(workload, seed)
    setup_times.append(dt)
    walls, times, failures, wrong = [], [], {}, 0
    first = None
    t_start = time.perf_counter()
    while True:
        wall, t, outs = run_pass(workload, cases)
        walls.append(wall)
        times += t
        f, w = check_pass(workload, cases, outs)
        failures.update(f)
        wrong += w
        prints = fingerprints(workload, outs)
        if first is None:
            first = prints
        elif prints != first:
            wrong += 1            # a repeated pass must give the same answers
        elapsed = time.perf_counter() - t_start
        if elapsed + wall > seconds:
            break
    # read the peak before the remaining set-ups, which would otherwise
    # count memory the allocator keeps from discarded instances
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(workload, seed)[0])
    passes = len(walls)
    attempted = len(times)
    failed = passes * sum(1 for c in cases if c.label in failures)
    p95 = percentile(times, 95)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_p95_ms": (1e3 * p95, "ms"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        "setup repeats: %d" % SETUP_REPEATS,
        "passes: %d of %d operations (%d timed operations)"
        % (passes, len(cases), attempted),
        "op_p95_ms: %d samples, %d beyond p95"
        % (attempted, sum(1 for t in times if t > p95)),
    ]
    return metrics, notes, attempted, failed, failures, wrong


def traced(workload, seed):
    cases = workload.setup(seed)
    wall_plain, _, outs_plain = run_pass(workload, cases)
    tracer = Tracer()
    with tracer:
        with tracer.span("setup"):
            cases = workload.setup(seed)
        wall_traced, times, outs = run_pass(workload, cases, tracer)
        # traced too, so complementarity_report counts the rejections that
        # verify_solution makes on the solve workloads
        failures, wrong = check_pass(workload, cases, outs, tracer)
    if fingerprints(workload, outs) != fingerprints(workload, outs_plain):
        wrong += 1                # the tracer must not perturb any result
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace_%s_seed%d.json" % (workload.name, seed))
    tracer.dump(path, {"workload": workload.name, "seed": seed,
                       "wall_untraced_s": wall_plain,
                       "wall_traced_s": wall_traced})
    notes = ["one untraced and one traced pass of %d operations"
             % len(cases), "spans written to %s" % path]
    failed = sum(1 for c in cases if c.label in failures)
    return metrics, notes, len(times), failed, failures, wrong


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        metrics, notes, attempted, failed, failures, wrong = traced(
            workload, args.seed)
    else:
        metrics, notes, attempted, failed, failures, wrong = end_to_end(
            workload, args.seed, args.seconds)

    print("workload %s  seed %d  blas threads %d  closed loop, 1 caller"
          % (workload.name, args.seed, BLAS_THREADS))
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print("  %-52s %14.6g %s" % (name, value, unit))
    print("  failed operations: %d of %d" % (failed, attempted))
    for label, checks in sorted(failures.items()):
        print("    %s: %s" % (label, ", ".join(checks)))
    if wrong:
        print("  wrong answers or disagreeing passes: %d" % wrong)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
