#!/usr/bin/env python3
"""polyred benchmark: seeded closed-loop workloads, checked answers, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload classify --seed 1 --seconds 33 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

With ``--trace 0`` the workload runs whole passes over its query list, one
query at a time, stopping at the pass boundary nearest to ``--seconds``
seconds (at least one pass), and the end-to-end metrics are reported.  With ``--trace 1`` a fixed
prefix of the same queries runs once untraced and once under cProfile with
spans, and the per-layer metrics are reported.  Every answer is checked after
the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See bench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("classify", "search", "cli")
SETUP_REPEATS = 7
TRACE_QUERIES = {"classify": 40, "search": 30, "cli": 48}
HELD_OUT_SEED = 104729
END_TO_END = (("queries_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("failed_frac", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# failed_frac is 0 whenever the program is right, so the result line carries
# it as "failed" over "attempted" rather than as a metric.
RESULT_METRICS = tuple(n for n, _ in END_TO_END if n != "failed_frac")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import polyred from this checkout's src/ (never from site-packages)."""
    if not (SRC / "polyred" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'polyred'}")
    if not (ROOT / "tests" / "helpers.py").is_file():
        fail("tests/helpers.py (the reference oracles) is missing")
    sys.path.insert(0, str(SRC))
    import polyred
    if Path(polyred.__file__).resolve().parent != (SRC / "polyred").resolve():
        fail(f"polyred imported from {polyred.__file__}, not from {SRC}")
    return polyred


@contextmanager
def scratch_dir():
    d = OUT / f"tmp-{os.getpid()}"
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)


def query_count(args, workload) -> int:
    import workloads
    full = workloads.QUERIES_PER_PASS[workload]
    if args.trace:
        full = TRACE_QUERIES[workload]
    return min(full, args.queries) if args.queries else full


# -- setup ---------------------------------------------------------------------------

def setup_only(args) -> None:
    """Child mode: time import + fields + inputs in this fresh interpreter."""
    t0 = time.perf_counter()
    import_package()
    import workloads
    with scratch_dir() as d:
        _, digest = workloads.build(args.workload, args.seed, query_count(args, args.workload), d)
        t1 = time.perf_counter()
    print(json.dumps({"setup_s": t1 - t0, "digest": digest}))


def setup_samples(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.queries:
        cmd += ["--queries", str(args.queries)]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            fail(f"setup child failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# -- running and checking --------------------------------------------------------

def run_queries(queries, tracer, seconds=None):
    """Closed loop over the queries, in whole passes, so every run has the
    same mix.  Without seconds, one pass.  With seconds, the run stops at the
    pass boundary nearest to them, at the pace so far (at least one pass).
    Returns (latencies, records, wall seconds, peak RSS in MB after the first
    pass: later passes repeat its work, so only their records would add)."""
    latencies, records, rss_mb = [], [], None
    clock = time.perf_counter
    start = clock()
    passes = 0
    while True:
        for q in queries:
            tracer.query = q.qid
            t0 = clock()
            try:
                raw, err = tracer.call(q.kind, q.run, tracer), None
            except Exception as e:  # a query that raises is a failed query
                raw, err = None, f"{type(e).__name__}: {e}"
            latencies.append(clock() - t0)
            records.append((q.qid, raw, err))
        passes += 1
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = clock() - start
        if seconds is None or elapsed * (passes + 0.5) / passes > seconds:
            return latencies, records, elapsed, rss_mb


def check_records(queries, records):
    """Check every answer; each distinct (query, answer) pair is checked once.

    Returns (failed count, problem lines, digest of first-pass answers)."""
    byid = {q.qid: q for q in queries}
    first: dict = {}
    verdicts: dict = {}
    failed, problems = 0, []
    for qid, raw, err in records:
        q = byid[qid]
        if err is None:
            try:
                ans = q.summarize(raw)
                first.setdefault(qid, ans)
                memo = (qid, json.dumps(ans, sort_keys=True))
                if memo not in verdicts:
                    verdicts[memo] = q.check(ans, first)
                found = verdicts[memo]
            except Exception as e:  # a malformed answer is a wrong answer
                found = [f"unreadable answer: {type(e).__name__}: {e}"]
        else:
            found = [f"raised {err}"]
        if found:
            failed += 1
            problems.append(f"query {qid} ({q.kind}): {'; '.join(found)}")
    blob = json.dumps([first.get(q.qid) for q in queries], sort_keys=True)
    return failed, problems, hashlib.sha256(blob.encode()).hexdigest()


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


# -- modes ---------------------------------------------------------------------------

def measure(args) -> dict:
    setups = setup_samples(args)
    import_package()
    import workloads
    with scratch_dir() as d:
        queries, digest = workloads.build(args.workload, args.seed,
                                          query_count(args, args.workload), d)
        lat, records, wall, rss_mb = run_queries(queries, workloads.Tracer(),
                                                 args.seconds)
        failed, problems, answers = check_records(queries, records)
    digests = {s["digest"] for s in setups}
    if digests != {digest}:
        failed += 1
        problems.append("inputs differ between interpreters for one seed")
    n = len(lat)
    values = {
        "queries_per_s": (n / wall, n),
        "latency_p50_ms": (1000 * statistics.median(lat), n),
        "latency_p90_ms": (1000 * percentile_90(lat), n),
        "failed_frac": (failed / n, n),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), len(setups)),
        "peak_rss_mb": (rss_mb, 1),
    }
    units = dict(END_TO_END)
    return {"workload": args.workload, "seed": args.seed, "trace": 0,
            "attempted": n, "failed": failed, "distinct_queries": len(queries),
            "input_digest": digest, "answer_digest": answers,
            "problems": problems,
            "latencies_s": [[qid, t] for (qid, _, _), t in zip(records, lat)],
            "table": [(k, v, units[k], c) for k, (v, c) in values.items()],
            "metrics": {k: {"value": values[k][0], "unit": units[k]}
                        for k in RESULT_METRICS}}


def trace(args) -> dict:
    import_package()
    import layers
    import workloads
    with scratch_dir() as d:
        queries, digest = workloads.build(args.workload, args.seed,
                                          query_count(args, args.workload), d)
        _, plain, plain_wall, _ = run_queries(queries, workloads.Tracer())
        tracer = workloads.Tracer(time.perf_counter)
        with layers.Profiled() as prof:
            _, traced, traced_wall, _ = run_queries(queries, tracer)
        failed, problems, answers = check_records(queries, plain + traced)
    values = prof.metrics()
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "query"],
         "spans": tracer.spans}), encoding="utf-8")
    return {"workload": args.workload, "seed": args.seed, "trace": 1,
            "attempted": len(plain) + len(traced), "failed": failed,
            "distinct_queries": len(queries), "input_digest": digest,
            "answer_digest": answers, "problems": problems,
            "spans_file": str(spans_file.relative_to(ROOT)),
            "table": [(k, values[k], layers.unit_of(k), len(traced))
                      for k in layers.metric_names()],
            "metrics": {k: {"value": values[k], "unit": layers.unit_of(k)}
                        for k in layers.metric_names()}}


def report(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"queries {res['attempted']} ({res['distinct_queries']} distinct)  "
          f"failed {res['failed']}")
    for name, value, unit, samples in res["table"]:
        print(f"  {name:36s} {value:14.6g} {unit:6s} n={samples}")
    print(f"  input digest   {res['input_digest']}")
    print(f"  answer digest  {res['answer_digest']}")
    print(f"  held-out seed  {HELD_OUT_SEED} (re-check later claims on it)")
    if "spans_file" in res:
        print(f"  spans          {res['spans_file']}")
    for line in res["problems"][:20]:
        print(f"  FAIL {line}")


def result_line(res: dict) -> str:
    return json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": res["metrics"]})


def run_all(args) -> None:
    """Each workload in its own interpreter, then one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.queries:
            cmd += ["--queries", str(args.queries)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {w} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    print(json.dumps(merged))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=33.0,
                    help="length of the timed loop (trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--queries", type=int, default=None,
                    help="truncate each workload to this many distinct queries "
                         "(smoke runs)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    if args.setup_only:
        setup_only(args)
        return
    if args.workload == "all":
        run_all(args)
        return
    res = trace(args) if args.trace else measure(args)
    report(res)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({k: v for k, v in res.items() if k != "table"}, indent=1),
        encoding="utf-8")
    print(result_line(res))


if __name__ == "__main__":
    main()
