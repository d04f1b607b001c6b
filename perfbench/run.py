"""Run one dirpareto benchmark workload.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 15 --trace 0

Each workload runs as a single-threaded closed loop: one caller sends the
next query only after the previous verdict has returned.  The loop repeats
whole passes over the workload's query set until ``--seconds`` have
passed.  Every answer is then checked by an independent computation,
outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same untraced
passes (for the overhead baseline), then one more pass with span wrappers
around every layer, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 1 when an answer
check fails.  Without a dirpareto package under ``src/`` next to this
directory the run stops with an error and prints no result.
"""

from __future__ import annotations

import os
import time

_T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402  (this directory)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
# short windows of back-to-back calls for queries with ``min_time``, and the
# share of a pass they take (see run_pass)
WINDOW = 0.02
SAMPLE_SHARE = 0.35

WORKLOADS = {
    "gallery": "wl_gallery",
    "lp-certificates": "wl_lp",
    "grid-sweep": "wl_grid",
    "cli": "wl_cli",
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB")]
# deterministic counts printed as one block by a traced run
COUNT_BLOCK = ["certify.samples", "lp.calls", "lp.infeasible", "maps.eval.calls",
               "cli.report_bytes", "certify.vacuous_unflagged"]


def import_package():
    """Import dirpareto from this checkout's ``src`` only."""
    if not (SRC / "dirpareto" / "__init__.py").is_file():
        raise SystemExit(f"error: no dirpareto package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dirpareto
    if Path(dirpareto.__file__).resolve().parent != (SRC / "dirpareto").resolve():
        raise SystemExit("error: imported dirpareto from outside this checkout")
    return dirpareto


def run_query(q, window: float = 0.0):
    """Time one query; returns (latencies, (result, exception)).

    The query is called back to back until ``window`` seconds have passed
    (at least once); every call's time to verdict is returned.
    """
    if q.prepare is not None:
        q.prepare()
    latencies = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            result, exc = q.call(), None
        except Exception as e:  # the verdict check classifies every exception
            result, exc = None, e
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        if t1 - start >= window:
            return latencies, (result, exc)


def run_pass(queries, sampled: set):
    """One pass over the queries; returns (latency, outcome) per query.

    A query with ``min_time`` whose first call took less than that joins
    ``sampled``: from then on it is timed in short windows of back-to-back
    calls, and its latency in the pass is its fastest call.  The windows run
    in rounds, one window per sampled query, whenever their time falls behind
    SAMPLE_SHARE of the time the other queries took so far, so they sample
    the machine in proportion to time across the whole pass: on a shared
    host a short call runs at full speed only in moments, and the fastest
    call of many moments is steady where the median of one spell is not.
    """
    outcomes = [None] * len(queries)
    calls = {}
    other = sampled_time = 0.0
    for i, q in enumerate(queries):
        if i not in sampled:
            lats, outcome = run_query(q)
            other += lats[0]
            outcomes[i] = (lats[0], outcome)
            if lats[0] < q.min_time:
                sampled.add(i)
                calls[i] = lats
        while sampled and sampled_time < SAMPLE_SHARE * other:
            for j in sorted(sampled):
                lats, outcome = run_query(queries[j], WINDOW)
                sampled_time += sum(lats)
                calls.setdefault(j, []).extend(lats)
                outcomes[j] = (None, outcome)
    for j in sorted(sampled - calls.keys()):   # no other query ran in this pass
        lats, outcome = run_query(queries[j], WINDOW)
        calls[j], outcomes[j] = lats, (None, outcome)
    for j, lats in calls.items():
        outcomes[j] = (min(lats), outcomes[j][1])
    return outcomes


def import_seconds() -> float:
    """Median time to import dirpareto in fresh interpreters."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import dirpareto; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_passes(queries, seconds: float, min_passes: int):
    """Whole passes until ``seconds`` have elapsed and ``min_passes`` ran.

    An answer equal to the first pass's answer to the same query is kept
    as that one object, so that memory does not grow with the pass count.
    Returns the passes and the indices of the queries timed in windows.
    """
    passes = []
    sampled = set()
    start = time.perf_counter()
    while True:
        outcomes = run_pass(queries, sampled)
        if passes:
            for i, (lat, outcome) in enumerate(outcomes):
                first = passes[0][i][1]
                if outcome_key(*outcome) == outcome_key(*first):
                    outcomes[i] = (lat, first)
        passes.append(outcomes)
        if time.perf_counter() - start >= seconds and len(passes) >= min_passes:
            return passes, sampled


def outcome_key(result, exc):
    if exc is not None:
        return ("exc", type(exc).__name__, str(exc))
    return ("ok", repr(result))


def check_passes(queries, passes):
    """Check every answer; identical answers to one query are checked once.

    Returns (status per answer, Counter of reasons).  A status is 'ok',
    'failed' or the id of a listed seed-state failure.  A pass that meets a
    listed defect more often than its recorded ``max_per_pass`` fails every
    such answer: the defect has spread.
    """
    memo = {}
    reasons = Counter()
    statuses = []
    for outcomes in passes:
        in_pass = []
        for q, (_, (result, exc)) in zip(queries, outcomes):
            key = (q.qid, outcome_key(result, exc))
            if key not in memo:
                memo[key] = q.check(result, exc)
            verdict = memo[key]
            if verdict is None:
                in_pass.append("ok")
            elif verdict.startswith("known:"):
                in_pass.append(common.known_id(verdict))
                reasons[verdict] += 1
            else:
                in_pass.append("failed")
                reasons[f"{q.kind}: {verdict}"] += 1
        for defect, count in Counter(in_pass).items():
            cap = common.KNOWN.get(defect, {}).get("max_per_pass")
            if cap is not None and count > cap:
                in_pass = ["failed" if s == defect else s for s in in_pass]
                reasons[f"{defect}: met {count} times in one pass, more than "
                        f"the {cap} recorded in NOTES.json"] += count
        statuses += in_pass
    return statuses, reasons


def percentile(values, q: float) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    dp = import_package()
    t_import = time.perf_counter() - _T_START
    sys.path.insert(0, str(BENCH_DIR))
    import importlib
    import tracer as tr
    wl_module = importlib.import_module(WORKLOADS[args.workload])

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        build_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            t0 = time.perf_counter()
            wl = wl_module.build(dp, args.seed, workdir)
            build_times.append(time.perf_counter() - t0)
        t_import_fresh = import_seconds()
        setup_s = t_import_fresh + statistics.median(build_times)

        passes, sampled = run_passes(wl.queries, args.seconds, wl.min_passes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        statuses, reasons = check_passes(wl.queries, passes)
        traced = None
        if args.trace:
            tracer = tr.Tracer()
            undo = tr.install(tracer)
            try:
                traced_pass = []
                for q in wl.queries:
                    tracer.query_id = q.qid
                    lats, outcome = run_query(q)
                    traced_pass.append((lats[0], outcome))
            finally:
                tr.uninstall(undo)
            st, rs = check_passes(wl.queries, [traced_pass])
            statuses += st
            reasons.update(rs)
            traced = (tracer, traced_pass)
        report_bytes = wl.report_bytes()
        extra = wl.summary(passes[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Other tenants slow this machine down by up to 2x for seconds at a time.
    # Each query is timed by its median over the passes, and wall_s adds up
    # those medians: a query's fastest pass is an extreme value that moves
    # with every slow spell, its median far less.  A query timed in windows
    # is timed by its fastest call of the whole run (see run_pass).
    typical = [(min if i in sampled else statistics.median)(p[i][0] for p in passes)
               for i in range(len(wl.queries))]
    p90 = percentile(typical, 90)
    attempted = len(statuses)
    failed = statuses.count("failed")
    known = sum(s not in ("ok", "failed") for s in statuses)

    print(f"workload {args.workload}  seed {args.seed}  queries/pass "
          f"{len(wl.queries)}  passes {len(passes)}  "
          f"closed loop, 1 client, 1 thread")
    for k, v in extra.items():
        print(f"  {k}: {v}")
    print(f"answers attempted {attempted}: ok {statuses.count('ok')}, "
          f"failed {failed}, known seed-state failures {known}")
    print(f"failed_frac {(failed + known) / attempted:.6f} "
          f"({failed + known} of {attempted}; {known} listed seed-state, "
          f"{failed} unexpected)")
    for reason, count in sorted(reasons.items()):
        print(f"  {count:6d}  {reason}")

    if args.trace:
        tracer, traced_pass = traced
        metrics = tr.layer_metrics(tracer)
        traced_wall = sum(lat for lat, _ in traced_pass)
        metrics["trace.overhead_frac"] = (traced_wall - sum(typical)) / sum(typical)
        metrics["cli.report_bytes"] = report_bytes
        units = {name: tr.unit_of(name) for name in metrics}
        spans_path = WORK / f"trace-{args.workload}-s{args.seed}.tsv"
        tracer.write(str(spans_path))
        print(f"traced pass: {len(traced_pass)} queries, {len(tracer.start)} spans "
              f"written to {spans_path.relative_to(ROOT)}")
        print("deterministic counts: " + json.dumps(
            {k: metrics[k] for k in COUNT_BLOCK}, sort_keys=True))
        order = sorted(metrics)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(typical),
            "latency_p50_ms": 1e3 * statistics.median(typical),
            "latency_p90_ms": 1e3 * p90,
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
        order = [name for name, _ in END_TO_END]
        print(f"setup: median import of {SETUP_REPEATS} fresh interpreters "
              f"{t_import_fresh:.4f} s (this process: {t_import:.4f} s) + median "
              f"build of {SETUP_REPEATS}: {statistics.median(build_times):.4f} s")
    per_query = (f"n={len(typical)} queries, each its median of {len(passes)} passes"
                 + (f", {len(sampled)} of them by their fastest call in windows"
                    if sampled else ""))
    samples = {"wall_s": per_query, "latency_p50_ms": per_query,
               "latency_p90_ms": f"n={len(typical)} queries, "
                                 f"{sum(1 for x in typical if x > p90)} beyond",
               "setup_s": f"n={SETUP_REPEATS} imports + {SETUP_REPEATS} builds", "peak_rss_mb": "n=1"}
    for name in order:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}"
              + (f"  ({samples[name]})" if name in samples else ""))

    correct = failed == 0
    if not correct:
        print("ANSWER CHECK FAILED: see the reasons above", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in order}}))
    return 0 if correct else 1



if __name__ == "__main__":
    sys.exit(main())
