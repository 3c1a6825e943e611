"""Spans around the library's public functions, for the traced run only.

``Tracer.install`` replaces each function in ``TARGETS`` with a timing
wrapper in every module that holds a reference to it (the lazy
``from .values import ...`` inside ``rounding`` then finds the wrapper too),
and ``uninstall`` puts the originals back.  Spans stay in memory as plain
lists until the run ends.  Counts read from arguments and results are taken
inside a ``trace.count`` child span, so their cost is charged to no layer.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from provergames import files, games, lp, quantum, rounding, transforms, values

# span record fields
NAME, START, END, PARENT, JOB, COUNTS, ERROR = range(7)

ROOT = "bench.job"
MS_PARENT = "bench.magic_square_seesaw"
#: the two halves of an ``exact`` job; their wall time per job is reported
HALVES = ("bench.ns_half", "bench.tables_half")
SEESAW = "values.entangled_lower_bound"
RESTART_HIT_TOL = 1e-6


def _lp_counts(args, kwargs, sol):
    prog = args[0]
    nonzeros = sum(1 for c in prog.constraints for a in c.coeffs if a)
    bits = [max(v.numerator.bit_length(), v.denominator.bit_length())
            for v in (sol.x or ()) + (sol.duals or ())]
    return {"lp.vars": prog.num_vars, "lp.rows": len(prog.constraints),
            "lp.nonzeros": nonzeros, "lp.max_bits": max(bits, default=0)}


def _seesaw_counts(args, kwargs, result):
    restarts = result.extras["restart_values"]
    best = max(restarts)
    return {"values.seesaw.best_iters": len(result.extras["objective_trace"]) // 3,
            "seesaw.restarts": len(restarts),
            "seesaw.restart_hits": sum(1 for v in restarts if best - v <= RESTART_HIT_TOL)}


def _entries(args, kwargs, game):
    return {"transforms.entries": game.q1_count * game.q2_count
            * game.a1_count * game.a2_count}


def _rows(args, kwargs, report):
    return {"rounding.rows": len(report.rows)}


#: (span name, owner, attribute, count function or None)
TARGETS = [
    ("lp.solve_lp", lp, "solve_lp", _lp_counts),
    ("lp.check_certificates", lp, "check_certificates", None),
    ("values.no_signaling_value", values, "no_signaling_value", None),
    ("values.multi_round_value", values, "multi_round_value", None),
    ("values.classical_value", values, "classical_value", None),
    ("values.pcp_value", values, "pcp_value", None),
    (SEESAW, values, "entangled_lower_bound", _seesaw_counts),
    ("transforms.oracularize_multi_round", transforms, "oracularize_multi_round", None),
    ("transforms.oracularize_pcp_dummy", transforms, "oracularize_pcp_dummy", None),
    ("transforms.parallel_repeat", transforms, "parallel_repeat", _entries),
    ("games.validate", games, "validate", None),
    ("games.to_float", games.TwoProverGame, "to_float", None),
    ("games.eval_two_prover", games, "eval_two_prover", None),
    ("games.is_no_signaling", games, "is_no_signaling", None),
    ("files.serialize_game", files, "serialize_game",
     lambda args, kwargs, text: {"files.bytes": len(text)}),
    ("files.parse_game", files, "parse_game", None),
    ("quantum.symmetrize_second_prover", quantum, "symmetrize_second_prover", None),
    ("quantum.to_bipartite_strategy", quantum, "to_bipartite_strategy", None),
    ("rounding.normalize_answer_shape", rounding, "normalize_answer_shape", None),
    ("rounding.ns_decompose", rounding, "ns_decompose", None),
    ("rounding.round_no_signaling", rounding, "round_no_signaling", None),
    ("rounding.hybrid_family", rounding, "hybrid_family", None),
    ("rounding.verify_ns_claims", rounding, "verify_ns_claims", _rows),
    ("rounding.com_decompose", rounding, "com_decompose", None),
    ("rounding.round_com", rounding, "round_com", None),
    ("rounding.verify_com_claims", rounding, "verify_com_claims", _rows),
]

_SPAN_NAMES = [n for name, *_ in TARGETS
               for n in ((name + ".pcp", name + ".ms") if name == SEESAW else (name,))]
_MAX_COUNTS = {"lp.max_bits"}  # a per-job maximum; other counts are per-job sums

#: the traced run's metrics: (name, unit, better)
LAYER_METRICS = (
    [(f"{name}.self_s", "s", "lower") for name in _SPAN_NAMES]
    + [("lp.vars", "count", "lower"), ("lp.rows", "count", "lower"),
       ("lp.nonzeros", "count", "lower"), ("lp.max_bits", "bits", "lower"),
       ("values.seesaw.best_iters", "count", "lower"),
       ("values.seesaw.restart_hit_frac", "ratio", "higher"),
       ("transforms.entries", "count", "lower"), ("files.bytes", "bytes", "lower"),
       ("rounding.rows", "count", "higher"),
       ("bench.glue.self_s", "s", "lower"), ("bench.span_errors", "count", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
    + [(f"{half}.total_s", "s", "lower") for half in HALVES])


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def open(self, name):
        self.spans.append([name, perf_counter(), None,
                           self._stack[-1] if self._stack else None, self.job, None, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx, error=False):
        span = self.spans[idx]
        span[END] = perf_counter()
        span[ERROR] = error
        self._stack.pop()

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, error=True)
                raise
            self.close(idx)
            if counts is not None:
                c = self.open("trace.count")
                self.spans[idx][COUNTS] = counts(args, kwargs, result)
                self.close(c)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap each (span name, owner, attribute, counts) target in its
        owner and in every library module that imported it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "provergames" or k.startswith("provergames.")]
        for name, owner, attr, counts in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counts)
            for holder in [owner] + [m for m in modules if m is not owner]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def layer_metrics(spans, jobs, traced_p50, untraced_p50):
    """The traced run's metrics, per job over ``jobs`` traced jobs."""
    names = [s[NAME] for s in spans]
    for i, s in enumerate(spans):
        if s[NAME] == SEESAW:
            parent = s[PARENT]
            names[i] += ".ms" if parent is not None and spans[parent][NAME] == MS_PARENT else ".pcp"
    totals = defaultdict(float)
    job_max = defaultdict(float)
    for name, st, s in zip(names, self_times(spans), spans):
        if name in HALVES:
            totals[f"{name}.total_s"] += s[END] - s[START]
        if name.startswith("bench."):
            totals["bench.glue"] += st
        elif not name.startswith("trace."):
            totals[name] += st
        totals["bench.span_errors"] += s[ERROR]
        for key, v in (s[COUNTS] or {}).items():
            if key in _MAX_COUNTS:
                job_max[(key, s[JOB])] = max(job_max[(key, s[JOB])], v)
            else:
                totals[key] += v
    for (key, _), v in job_max.items():
        totals[key] += v
    restarts = totals.pop("seesaw.restarts", 0)
    hits = totals.pop("seesaw.restart_hits", 0)
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name == "values.seesaw.restart_hit_frac":
            value = hits / restarts if restarts else 0.0
        elif name == "trace.overhead_frac":
            value = traced_p50 / untraced_p50 - 1
        else:
            value = totals.get(name.removesuffix(".self_s"), 0) / jobs
        out[name] = {"value": value, "unit": unit}
    return out
