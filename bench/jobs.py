"""Seeded inputs and the one-job functions of the two workloads.

Each workload has a job function that runs one closed-loop job through the
library's public functions and returns what the checks in ``checks.py``
need, and an input for every job index ``i``, drawn from the run's
``--seed`` and ``i`` alone.  Job shapes are constants here; the seed
changes only the random instances.

An ``exact`` job is an ``ns_exact_job`` followed by a ``tables_job``: the
exact rational paths share one workload so that each run can be long
enough to average out the host's speed drift (see ``README.md``).

Job cost grows steeply with the number of questions in a game's support.
``provergames.sampling`` keeps each question with probability ``KEEP``, so
a support size is Binomial(n, KEEP), with an empty support replaced by
one question.  Input ``i`` is drawn, by rejection, with the support size at
position ``i`` of a fixed cycle whose sizes follow that distribution
(``size_cycle``).  Every run then has the sampler's own mix of sizes, and
run-to-run spread does not come from one seed drawing larger games than
another.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from provergames import (catalog, files, games, quantum, rounding, sampling,
                         transforms, values)
from provergames.games import DeterministicBipartiteStrategy, MultiRoundGame
from provergames.indexing import encode_tuple, iter_tuples

#: probability with which ``sampling`` keeps each question in a support
KEEP = 0.7
GOLDEN = (math.sqrt(5) - 1) / 2
MAX_DRAWS = 10_000

# the ns half of exact: `verify ns-claims --questions 3 --rounds 2 --samples 1 --strategies 2`
NS_SHAPE = {"q": 3, "a": 2, "rounds": 2}
# com-float: PCP see-saw and rounding, plus one Magic Square see-saw
COM_POSITIONS = 5
COM_SEESAW = {"dims": (2, 2), "restarts": 3, "max_iters": 40}
MS_SEESAW = {"dims": (4, 4), "restarts": 1, "max_iters": 10}
# the tables half of exact: classical enumeration on BIG, then a parallel
# repetition of BASE
BIG_SHAPE = (6, 6, 3, 3)
BASE_SHAPE = (4, 4, 3, 3)
REPEAT = 2


def support_pmf(n):
    """Probability of each support size 1..n of the sampler over ``n``
    questions."""
    pmf = {k: math.comb(n, k) * KEEP**k * (1 - KEEP)**(n - k) for k in range(1, n + 1)}
    pmf[1] += (1 - KEEP)**n  # an empty support becomes one question
    return pmf


def size_cycle(n, length):
    """``length`` support sizes in proportion to ``support_pmf(n)``
    (largest remainders), in golden-ratio order: entry ``j`` takes the size
    whose rank among the sorted sizes is the rank of ``j * GOLDEN mod 1``,
    so every stretch of the cycle has about the cycle's mix and mean."""
    pmf = support_pmf(n)
    quota = {k: p * length for k, p in pmf.items()}
    slots = {k: math.floor(q) for k, q in quota.items()}
    for k in sorted(quota, key=lambda k: slots[k] - quota[k])[:length - sum(slots.values())]:
        slots[k] += 1
    ranked = sorted(k for k, c in slots.items() for _ in range(c))
    cycle = [0] * length
    for rank, j in enumerate(sorted(range(length), key=lambda j: j * GOLDEN % 1)):
        cycle[j] = ranked[rank]
    return tuple(cycle)


NS_SIZES = size_cycle(NS_SHAPE["q"] ** NS_SHAPE["rounds"], 20)  # question tuples, of 9
COM_SIZES = size_cycle(math.comb(COM_POSITIONS, 3), 20)  # triples, of 10
BIG_SIZES = size_cycle(BIG_SHAPE[0] * BIG_SHAPE[1], 20)  # question pairs, of 36
BASE_SIZES = size_cycle(BASE_SHAPE[0] * BASE_SHAPE[1], 21)  # of 16; 21 is coprime to 20


@dataclass(frozen=True)
class NsInput:
    game: object
    seed: int


@dataclass(frozen=True)
class ComInput:
    game: object
    ms_game: object  # the float Magic Square game, shared by every job
    seed: int


@dataclass(frozen=True)
class TablesInput:
    big: object
    base: object


@dataclass(frozen=True)
class ExactInput:
    ns: NsInput
    tables: TablesInput


def support_size(game):
    if isinstance(game, MultiRoundGame):
        return sum(1 for p in game.pi if p)
    return len(game.support())


def sized(draw, size):
    """The first drawn game whose support has ``size`` questions."""
    for _ in range(MAX_DRAWS):
        game = draw()
        if support_size(game) == size:
            return game
    raise RuntimeError(f"no game with support size {size} in {MAX_DRAWS} draws")


def input_at(workload, seed, i):
    """The input of job ``i`` of a run with ``seed``; its support size is
    entry ``i`` of the workload's size cycle."""
    rng = random.Random(f"{workload}:{seed}:{i}")
    if workload == "exact":
        game = sized(lambda: sampling.random_multi_round_game(rng, **NS_SHAPE),
                     NS_SIZES[i % len(NS_SIZES)])
        ns = NsInput(game, rng.getrandbits(31))
        return ExactInput(ns, TablesInput(
            sized(lambda: sampling.random_two_prover_game(rng, *BIG_SHAPE),
                  BIG_SIZES[i % len(BIG_SIZES)]),
            sized(lambda: sampling.random_two_prover_game(rng, *BASE_SHAPE),
                  BASE_SIZES[i % len(BASE_SIZES)])))
    if workload == "com-float":
        game = sized(lambda: sampling.random_pcp_game(rng, COM_POSITIONS),
                     COM_SIZES[i % len(COM_SIZES)])
        return ComInput(game, magic_square_float(), rng.getrandbits(31))
    raise ValueError(f"unknown workload {workload!r}")


def warmup_input(workload):
    """The set-up's warm-up input, the same in every run."""
    return input_at(workload, "warm-up", 0)


@functools.cache
def magic_square_float():
    """The float Magic Square game, built once and shared by every job."""
    return catalog.magic_square_game().to_float()


def ns_exact_job(inp):
    gp = transforms.oracularize_multi_round(inp.game)
    lp_result = values.no_signaling_value(gp)
    rng = sampling.seeded(inp.seed)
    strategies = [(True, lp_result.witness),
                  (False, sampling.random_ns_strategy(rng, gp)),
                  (False, sampling.random_product_strategy(rng, gp))]
    reports = []
    for lp_optimal, theta in strategies:
        theta = rounding.normalize_answer_shape(theta, gp)
        tables = rounding.ns_decompose(gp, theta)
        rounded = rounding.round_no_signaling(tables)
        hybrids = rounding.hybrid_family(tables, rounded, tables.game)
        reports.append(rounding.verify_ns_claims(tables, hybrids,
                                                 lp_optimal=lp_optimal))
    return {"gprime": gp, "ns": lp_result, "reports": reports}


def magic_square_seesaw(game, seed):
    """The Magic Square see-saw; its own function so the traced run can tell
    this see-saw from the PCP one by the parent span."""
    return values.entangled_lower_bound(game, seed=seed, **MS_SEESAW)


def com_float_job(inp):
    gp = transforms.oracularize_pcp_dummy(inp.game)
    gp_float = gp.to_float()
    seesaw = values.entangled_lower_bound(gp_float, seed=inp.seed, **COM_SEESAW)
    rng = np.random.default_rng(inp.seed)
    reports = []
    for s in (seesaw.witness, quantum.random_strategy(rng, gp, 2, 2)):
        s = quantum.symmetrize_second_prover(s, gp)
        tables = rounding.com_decompose(inp.game, gp, s)
        rounded = rounding.round_com(tables)
        reports.append(rounding.verify_com_claims(inp.game, tables, rounded))
    ms = magic_square_seesaw(inp.ms_game, inp.seed)
    return {"gprime_float": gp_float, "seesaw": seesaw, "ms_seesaw": ms,
            "reports": reports}


def product_strategy(det, base, n):
    """The n-fold product of a deterministic strategy of ``base``."""
    f1 = [encode_tuple([det.f1[x] for x in q], base.a1_count)
          for q in iter_tuples(base.q1_count, n)]
    f2 = [encode_tuple([det.f2[x] for x in q], base.a2_count)
          for q in iter_tuples(base.q2_count, n)]
    return DeterministicBipartiteStrategy(f1, f2)


def tables_job(inp):
    big = values.classical_value(inp.big)
    base_classical = values.classical_value(inp.base)
    base_ns = values.no_signaling_value(inp.base)
    repeated = transforms.parallel_repeat(inp.base, REPEAT)
    text = files.serialize_game(repeated)
    parsed = files.parse_game(text)
    problems = games.validate(parsed)
    equal = repeated == parsed
    repeated_float = repeated.to_float()
    product_value = games.eval_two_prover(
        repeated, product_strategy(base_classical.witness, inp.base, REPEAT))
    return {"big": big, "base_classical": base_classical, "base_ns": base_ns,
            "repeated": repeated, "repeated_float": repeated_float,
            "validate": problems, "equal": equal,
            "product_value": product_value}


def exact_job(inp):
    return {"ns": ns_exact_job(inp.ns), "tables": tables_job(inp.tables)}


JOBS = {"exact": exact_job, "com-float": com_float_job}
