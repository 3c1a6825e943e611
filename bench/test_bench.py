"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import checks
import jobs
import run
import stats
import tracing
import worker
from provergames import lp, rounding, values


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_samples_beyond_a_percentile():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(40, 75) == 10
    assert stats.samples_beyond(39, 75) == 9
    assert stats.samples_beyond(1, 50) == 0


def span(name, start, end, parent=None, job=0, counts=None):
    return [name, start, end, parent, job, counts, False]


def test_self_time_subtracts_covered_child_time():
    spans = [
        span(tracing.ROOT, 0.0, 10.0),
        span("values.no_signaling_value", 1.0, 4.0, parent=0),
        span("lp.solve_lp", 1.5, 3.5, parent=1),
        span("games.validate", 5.0, 9.0, parent=0),
        span("games.eval_two_prover", 6.0, 7.0, parent=3),
        span("games.eval_two_prover", 6.5, 8.0, parent=3),  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.0, 2.0, 2.0, 1.0, 1.5])


def test_layer_metrics_per_job():
    spans = [
        span(tracing.ROOT, 0.0, 10.0, job=0),
        span(tracing.MS_PARENT, 1.0, 5.0, parent=0, job=0),
        span(tracing.SEESAW, 1.0, 4.0, parent=1, job=0,
             counts={"values.seesaw.best_iters": 4, "seesaw.restarts": 1,
                     "seesaw.restart_hits": 1}),
        span(tracing.SEESAW, 6.0, 8.0, parent=0, job=0,
             counts={"values.seesaw.best_iters": 2, "seesaw.restarts": 3,
                     "seesaw.restart_hits": 2}),
        span(tracing.ROOT, 20.0, 22.0, job=1),
        span(tracing.HALVES[0], 20.25, 21.75, parent=4, job=1),
        span("lp.solve_lp", 20.5, 21.5, parent=5, job=1, counts={"lp.max_bits": 7}),
        span("lp.solve_lp", 21.5, 21.75, parent=5, job=1, counts={"lp.max_bits": 3}),
    ]
    m = {k: v["value"] for k, v in tracing.layer_metrics(spans, 2, 1.1, 1.0).items()}
    assert set(m) == {name for name, _, _ in tracing.LAYER_METRICS}
    assert m["values.entangled_lower_bound.ms.self_s"] == pytest.approx(1.5)
    assert m["values.entangled_lower_bound.pcp.self_s"] == pytest.approx(1.0)
    assert m["lp.solve_lp.self_s"] == pytest.approx(0.625)
    # glue: root 0 keeps 10 - 4 - 2, the MS parent keeps 1, root 1 keeps
    # 2 - 1.5 and its ns half 1.5 - 1.25
    assert m["bench.glue.self_s"] == pytest.approx((4 + 1 + 0.5 + 0.25) / 2)
    assert m["bench.ns_half.total_s"] == pytest.approx(1.5 / 2)
    assert m["bench.tables_half.total_s"] == 0
    assert m["values.seesaw.best_iters"] == pytest.approx(3.0)
    assert m["values.seesaw.restart_hit_frac"] == pytest.approx(3 / 4)
    assert m["lp.max_bits"] == pytest.approx(3.5)  # per-job maximum, then mean
    assert m["trace.overhead_frac"] == pytest.approx(0.1)


def test_install_wraps_every_reference_and_uninstall_restores():
    original = lp.solve_lp
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert lp.solve_lp is not original
        assert values.solve_lp is lp.solve_lp
        assert rounding.is_no_signaling.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert lp.solve_lp is original and values.solve_lp is original


def exact_output(seed=3):
    inp = jobs.input_at("exact", seed, 0)
    return inp, jobs.exact_job(inp)


def test_exact_job_passes_its_checks():
    inp, out = exact_output()
    assert checks.run_check("exact", inp, out) == []


def test_planted_wrong_lp_value_counts_as_failure(tmp_path):
    inp, out = exact_output()
    ns = out["tables"]["base_ns"]
    tables = dict(out["tables"], base_ns=dataclasses.replace(ns, value=ns.value + Fraction(1, 1000)))
    planted = dict(out, tables=tables)
    problems = checks.run_check("exact", inp, planted)
    assert any("HiGHS" in p for p in problems)

    # through the worker's records and the parent's counting
    path = tmp_path / "records.pkl"
    args = SimpleNamespace(workload="exact", seed=3, start=0, seconds=1e-6)
    with open(path, "wb") as records:
        result = worker.untraced_loop(args, lambda _: planted, records)
    n, failed, _ = run.check_records("exact", run.read_records(path))
    assert failed == n == len(result["durations"]) >= 1
    metrics = run.end_to_end(result["durations"], failed, [1.0], 40.0)
    assert metrics["pass_frac"]["value"] == 0.0


def test_a_job_that_raises_is_a_failure(tmp_path):
    def broken(_):
        raise ValueError("planted")

    path = tmp_path / "records.pkl"
    args = SimpleNamespace(workload="exact", seed=3, start=0, seconds=1e-6)
    with open(path, "wb") as records:
        worker.untraced_loop(args, broken, records)
    n, failed, problems = run.check_records("exact", run.read_records(path))
    assert failed == n >= 1 and "planted" in problems[0]


def test_a_check_that_cannot_run_is_a_failure():
    inp, _ = exact_output()
    problems = checks.run_check("exact", inp, {})
    assert problems and "could not be computed" in problems[0]


@pytest.mark.parametrize("n, cycle", [(9, jobs.NS_SIZES), (10, jobs.COM_SIZES),
                                      (36, jobs.BIG_SIZES), (16, jobs.BASE_SIZES)])
def test_size_cycle_follows_the_sampler(n, cycle):
    pmf = jobs.support_pmf(n)
    assert sum(pmf.values()) == pytest.approx(1.0)
    # each size gets its share of the cycle, rounded
    for k, p in pmf.items():
        assert abs(cycle.count(k) - p * len(cycle)) < 1
    # any stretch of half the cycle has about the cycle's mean size: closer
    # than 0.3 standard deviations, where independent draws would be ~0.32 off
    mean = sum(cycle) / len(cycle)
    sd = math.sqrt(n * jobs.KEEP * (1 - jobs.KEEP))
    half = len(cycle) // 2
    for i in range(len(cycle)):
        stretch = [cycle[(i + j) % len(cycle)] for j in range(half)]
        assert abs(sum(stretch) / half - mean) < 0.3 * sd


def test_support_pmf_matches_the_sampler():
    rng = random.Random(0)
    draws = 4000
    sizes = [jobs.support_size(jobs.sampling.random_multi_round_game(rng, **jobs.NS_SHAPE))
             for _ in range(draws)]
    for k, p in jobs.support_pmf(9).items():
        assert abs(sizes.count(k) / draws - p) < 0.03


def shapes(workload, inp):
    if workload == "com-float":
        g = inp.game
        return (g.positions, g.alphabet_size, jobs.support_size(g), inp.ms_game.q1_count)
    g = inp.ns.game
    return ((g.q_count, g.a_count, g.rounds, jobs.support_size(g)),) + tuple(
        (g.q1_count, g.q2_count, g.a1_count, g.a2_count, jobs.support_size(g))
        for g in (inp.tables.big, inp.tables.base))


def first(workload, seed, n=12):
    return [jobs.input_at(workload, seed, i) for i in range(n)]


@pytest.mark.parametrize("workload", sorted(jobs.JOBS))
def test_seed_changes_inputs_not_shapes(workload):
    a, b = first(workload, 1), first(workload, 2)
    assert a == first(workload, 1)
    assert all(x != y for x, y in zip(a, b))
    assert [shapes(workload, x) for x in a] == [shapes(workload, y) for y in b]
