"""Benchmark of the provergames library: one workload per invocation.

    python3 bench/run.py --workload exact --seed 1 --seconds 50 --trace 0

Runs from the root of a source checkout.  Jobs run in fresh worker
processes (``worker.py``) that import the library from ``src/`` with BLAS
pinned to one thread.  An untraced run splits its job time over ``CHUNKS``
workers in turn, so that its set-ups are spread over the run; a traced run
uses one.  After each worker ends, this process checks every job the worker
pickled (``checks.py``).  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones; human-readable lines
starting with ``#`` come first and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("exact", "com-float")
#: workers per untraced run; set-up time is the median of their set-ups
CHUNKS = 5
#: the job-time percentile reported next to the median: the highest that
#: keeps ten samples beyond it in an `exact` run of 50 s (34 or more jobs)
TAIL = 70
#: workers still running this long after the start are killed
TIME_LIMIT_S = 170
MAX_PROBLEMS_SHOWN = 5


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker(args, start, seconds, records, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               BLIS_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--start", str(start),
           "--records", str(records), "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_records(path):
    """The (input, output, error) of every job a worker pickled."""
    with open(path, "rb") as f:
        while True:
            try:
                yield pickle.load(f)
            except EOFError:
                return


def check_records(workload, records):
    """(jobs, failed jobs, problems) over the records; a job fails when it
    raised or a check found a problem."""
    from checks import run_check

    n = failed = 0
    problems = []
    for inp, out, error in records:
        found = [error] if error else run_check(workload, inp, out)
        n += 1
        failed += bool(found)
        problems += found
    return n, failed, problems


def end_to_end(durations, failed, setups, peak_rss_mb):
    import stats

    n = len(durations)
    return {name: {"value": value, "unit": unit} for name, value, unit in (
        ("job_p50_s", stats.percentile(durations, 50), "s"),
        (f"job_p{TAIL}_s", stats.percentile(durations, TAIL), "s"),
        ("jobs_per_s", n / sum(durations), "1/s"),
        ("pass_frac", 1 - failed / n, "ratio"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("setup_s", statistics.median(setups), "s"))}


def run(args):
    """(attempted, failed, problems, metrics, summary, env) of one run."""
    import stats

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    records = OUT_DIR / f"records-{args.workload}-seed{args.seed}.pkl"
    chunks = 1 if args.trace else CHUNKS
    results, jobs_done, failed, problems = [], 0, 0, []
    try:
        for k in range(chunks):
            # each worker gets an even share of the job time still to run
            done = sum(sum(r.get("durations", ())) for r in results)
            seconds = (args.seconds - done) / (chunks - k)
            results.append(worker(args, jobs_done, seconds, records, deadline))
            n, f, found = check_records(args.workload, read_records(records))
            jobs_done += n
            failed += f
            problems += found
    finally:
        records.unlink(missing_ok=True)

    import scipy

    env = dict(results[-1]["env"], commit=git_commit(), scipy=scipy.__version__,
               workload=args.workload, seed=args.seed, jobs=jobs_done)
    if args.trace:
        import tracing

        r = results[0]
        metrics = tracing.layer_metrics(r["spans"], len(r["traced"]),
                                        stats.percentile(r["traced"], 50),
                                        stats.percentile(r["plain"], 50))
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                                "job", "counts", "error"],
                                     "spans": r["spans"]}))
        summary = {"jobs": jobs_done, "traced_jobs": len(r["traced"]),
                   "spans": len(r["spans"]), "spans_file": str(spans.relative_to(ROOT))}
        return jobs_done, failed, problems, metrics, summary, env

    durations = [d for r in results for d in r["durations"]]
    setups = [r["setup_s"] for r in results]
    metrics = end_to_end(durations, failed, setups,
                         max(r["peak_rss_mb"] for r in results))
    summary = {"jobs": jobs_done, "fail_frac": failed / jobs_done,
               "job_p90_s": stats.percentile(durations, 90),
               f"beyond_p{TAIL}": stats.samples_beyond(jobs_done, TAIL),
               "beyond_p90": stats.samples_beyond(jobs_done, 90),
               "setups_s": setups,
               "import_rss_mb": max(r["import_rss_mb"] for r in results)}
    return jobs_done, failed, problems, metrics, summary, env


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="job time to measure, excluding set-up and checks")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "provergames" / "__init__.py").is_file():
        print(f"error: no provergames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    try:
        attempted, failed, problems, metrics, summary, env = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    print("# env " + json.dumps(env))
    print("# summary " + json.dumps(summary))
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
