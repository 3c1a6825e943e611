"""One stretch of a workload in one fresh process: set-up, then a closed
loop of jobs.

Started by ``run.py``, never by hand.  The parent passes ``--t0``, its
``time.monotonic()`` just before starting this process, so ``setup_s``
covers interpreter start, ``import provergames``, drawing the warm-up input
and one warm-up job.  Job ``i`` of the stretch runs input ``--start + i``.

This process imports only the library and numpy.  The checks, and their
scipy, run in the parent: each job's input, output and error are pickled to
``--records`` between jobs, outside the timed region, so that the peak
memory of this process is that of the library alone.  The last stdout line
is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time

import numpy as np

import jobs
from provergames import lp

#: BLAS thread variables that run.py sets to 1 for this process
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def peak_rss_mb():
    """Peak resident memory of this process since it was started.

    ``VmHWM`` rather than ``ru_maxrss``: the latter also counts the parent's
    resident memory at the time it forked this process."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment():
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "lp_rational": f"{lp._rat.__module__}.{lp._rat.__qualname__}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


def timed(job, inp):
    """(seconds, output or None, error text or None) of one job."""
    start = time.perf_counter()
    try:
        out = job(inp)
    except Exception as e:  # noqa: BLE001 - a failing job is counted, not fatal
        return time.perf_counter() - start, None, f"job raised {type(e).__name__}: {e}"
    return time.perf_counter() - start, out, None


def untraced_loop(args, job, records):
    durations = []
    while sum(durations) < args.seconds:
        inp = jobs.input_at(args.workload, args.seed, args.start + len(durations))
        dt, out, error = timed(job, inp)
        durations.append(dt)
        pickle.dump((inp, out, error), records)
    return {"durations": durations}


def traced_loop(args, job, records):
    """Each input runs once untraced and once traced, in alternating order,
    so the tracing overhead is measured on the same jobs."""
    import tracing

    tracer = tracing.Tracer()
    ns_half, tables_half = tracing.HALVES
    targets = tracing.TARGETS + [
        (tracing.MS_PARENT, jobs, "magic_square_seesaw", None),
        (ns_half, jobs, "ns_exact_job", None),
        (tables_half, jobs, "tables_job", None)]
    plain, traced = [], []
    i = 0
    while sum(plain) + sum(traced) < args.seconds:
        inp = jobs.input_at(args.workload, args.seed, args.start + i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.job = i
                tracer.install(targets)
                root = tracer.open(tracing.ROOT)
            dt, out, error = timed(job, inp)
            if with_trace:
                tracer.close(root, error=error is not None)
                tracer.uninstall()
            (traced if with_trace else plain).append(dt)
            pickle.dump((inp, out, error), records)
        i += 1
    return {"plain": plain, "traced": traced, "spans": tracer.spans}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(jobs.JOBS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--records", required=True)
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args(argv)

    import_rss_mb = peak_rss_mb()
    job = jobs.JOBS[args.workload]
    job(jobs.warmup_input(args.workload))
    setup_s = time.monotonic() - args.t0

    loop = traced_loop if args.trace else untraced_loop
    with open(args.records, "wb") as records:
        result = loop(args, job, records)
    result.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
                  import_rss_mb=import_rss_mb, env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
