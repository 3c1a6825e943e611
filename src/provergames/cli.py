"""Command-line interface.

Subcommands: ``value`` (compute a game value), ``transform`` (write a
transformed game), ``verify`` (run a rounding/inequality suite), ``gen``
(build a PCP game from a formula), ``catalog`` (write a built-in game).

Exit codes: 0 on success, 1 when a verification suite finds a violated
inequality or a result fails its independent correctness check, 2 on usage
or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import (catalog, files, lp, quantum, rounding, sampling, scalars,
               transforms, values)
from .rounding import InequalityReport, InequalityRow


def _fmt(value):
    if isinstance(value, Fraction):
        return scalars.format_scalar(value)
    return repr(float(value))


def _json_value(value):
    if isinstance(value, Fraction):
        return {"rational": scalars.format_scalar(value), "float": float(value)}
    return {"float": float(value)}


def _print_report(report, as_json, header, out=None):
    out = out if out is not None else sys.stdout
    if as_json:
        payload = {
            "command": header,
            "ok": report.ok,
            "rows": [{"name": r.name, "lhs": _json_value(r.lhs),
                      "rhs": _json_value(r.rhs), "tol": float(r.tol),
                      "holds": r.holds} for r in report.rows],
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print(header, file=out)
        for r in report.rows:
            status = "ok" if r.holds else "VIOLATED"
            print(f"  {r.name}: lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} [{status}]",
                  file=out)
        print(f"{'all inequalities hold' if report.ok else 'VIOLATIONS FOUND'} "
              f"({len(report.rows)} checked)", file=out)
    return 0 if report.ok else 1


def _at_least(low):
    """An argparse ``type``: an integer no smaller than ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_count, _seed = _at_least(1), _at_least(0)


def _dims(text):
    """An argparse ``type``: local dimensions ``d1,d2``, each at least 1."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected d1,d2, got {text!r}")
    return tuple(map(_count, parts))


def _load_game(path):
    with open(path, "r", encoding="utf-8") as f:
        return files.parse_game(f.read())


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _witness_payload(result):
    w = result.witness
    from .games import (BipartiteStrategy, DeterministicBipartiteStrategy,
                        MultiRoundStrategy)

    if isinstance(w, DeterministicBipartiteStrategy):
        return {"type": "deterministic", "f1": list(w.f1), "f2": list(w.f2)}
    if isinstance(w, BipartiteStrategy):
        return {"type": "bipartite",
                "theta": np.frompyfunc(_fmt, 1, 1)(w.theta).tolist()}
    if isinstance(w, MultiRoundStrategy):
        return {"type": "multi_round",
                "tables": [np.frompyfunc(_fmt, 1, 1)(t).tolist() for t in w.tables]}
    if isinstance(w, tuple):
        return {"type": "proof", "proof": list(w)}
    if isinstance(w, quantum.QuantumStrategy):
        def re_im(arr):  # each complex entry as [real, imag]
            return np.stack([arr.real, arr.imag], axis=-1).tolist()

        return {"type": "quantum", "d1": w.d1, "d2": w.d2, "state": re_im(w.state),
                "povms1": re_im(w.M), "povms2": re_im(w.N)}
    return {"type": "unknown"}


def _cmd_value(args):
    game = _load_game(args.file)
    from .games import MultiRoundGame, PcpGame, TwoProverGame

    kind = args.kind
    if kind in ("classical", "no-signaling", "entangled-lb"):
        if not isinstance(game, TwoProverGame):
            raise ValueError(f"{kind} needs a two-prover game file")
        if kind == "classical":
            result = values.classical_value(game)
        elif kind == "no-signaling":
            result = values.no_signaling_value(game)
        else:
            result = values.entangled_lower_bound(
                game.to_float(), dims=args.dims, restarts=args.restarts,
                max_iters=args.max_iters, seed=args.seed)
    elif kind == "multi-round":
        if not isinstance(game, MultiRoundGame):
            raise ValueError("multi-round needs a multi_round game file")
        result = values.multi_round_value(game)
    elif kind == "pcp":
        if not isinstance(game, PcpGame):
            raise ValueError("pcp needs a pcp3 game file")
        result = values.pcp_value(game)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(kind)

    if args.json:
        payload = {"command": f"value {kind}", "file": args.file,
                   "value": _json_value(result.value),
                   "method": result.method, "exact": result.exact}
        print(json.dumps(payload, indent=2))
    else:
        if isinstance(result.value, Fraction):
            print(f"{scalars.format_scalar(result.value)} "
                  f"(= {float(result.value)!r})")
        else:
            print(repr(float(result.value)))
    if args.witness:
        with open(args.witness, "w", encoding="utf-8") as f:
            json.dump(_witness_payload(result), f, indent=2)
    return 0


def _cmd_transform(args):
    game = _load_game(args.file)
    from .games import MultiRoundGame, PcpGame, TwoProverGame

    if args.kind == "oracularize":
        if isinstance(game, MultiRoundGame):
            out = transforms.oracularize_multi_round(game)
        elif isinstance(game, PcpGame):
            out = transforms.oracularize_pcp(game)
        else:
            raise ValueError("oracularize needs a multi_round or pcp3 game")
    elif args.kind == "oracularize-dummy":
        if not isinstance(game, PcpGame):
            raise ValueError("oracularize-dummy needs a pcp3 game")
        out = transforms.oracularize_pcp_dummy(game)
    else:
        if not isinstance(game, TwoProverGame):
            raise ValueError("repeat needs a two-prover game")
        out = transforms.parallel_repeat(game, args.n)
    _write_text(args.output, files.serialize_game(out))
    if args.json:
        print(json.dumps({"command": f"transform {args.kind}",
                          "output": args.output,
                          "counts": _counts_of(out)}, indent=2))
    return 0


def _counts_of(game):
    from .games import MultiRoundGame, PcpGame

    if isinstance(game, MultiRoundGame):
        return [game.q_count, game.a_count, game.rounds]
    if isinstance(game, PcpGame):
        return [game.positions, game.alphabet_size]
    return [game.q1_count, game.q2_count, game.a1_count, game.a2_count]


def _cmd_gen(args):
    with open(args.file, "r", encoding="utf-8") as f:
        formula = files.parse_formula(f.read())
    game = transforms.pcp_from_1in3(formula)
    _write_text(args.output, files.serialize_game(game))
    if args.json:
        print(json.dumps({"command": "gen pcp-1in3", "output": args.output,
                          "positions": game.positions,
                          "clauses": game.meta["num_clauses"]}, indent=2))
    return 0


def _cmd_catalog(args):
    if args.name == "chsh":
        game = catalog.chsh()
    elif args.name == "magic-square":
        game = catalog.magic_square_game()
    else:
        game = catalog.tiny_1in3()
    _write_text(args.output, files.serialize_game(game))
    if args.json:
        print(json.dumps({"command": f"catalog {args.name}",
                          "output": args.output,
                          "counts": _counts_of(game)}, indent=2))
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_lemma_wns(args):
    rng = sampling.seeded(args.seed)
    rows = []
    for k in range(args.samples):
        g = sampling.random_multi_round_game(rng, args.questions, args.answers,
                                             args.rounds)
        w = values.multi_round_value(g).value
        gp = transforms.oracularize_multi_round(g)
        wns = values.no_signaling_value(gp).value
        rows.append(InequalityRow(
            f"sample {k}: w_ns(G') <= 1-(1-w)/(3r) [w={scalars.format_scalar(w)}]",
            wns, 1 - (1 - w) / Fraction(3 * g.rounds), Fraction(0)))
    return InequalityReport(tuple(rows))


def _suite_ns_claims(args):
    rng = sampling.seeded(args.seed)
    rows = []
    for k in range(args.samples):
        g = sampling.random_multi_round_game(rng, args.questions, args.answers,
                                             args.rounds)
        gp = transforms.oracularize_multi_round(g)
        strategies = [("lp-optimal", True, rounding.normalize_answer_shape(
            values.no_signaling_value(gp).witness, gp))]
        for s in range(args.strategies):
            kind = "mixture" if s % 2 == 0 else "product"
            theta = (sampling.random_ns_strategy(rng, gp) if kind == "mixture"
                     else sampling.random_product_strategy(rng, gp))
            strategies.append((f"{kind}-{s}", False,
                               rounding.normalize_answer_shape(theta, gp)))
        for name, lp_opt, theta in strategies:
            tables = rounding.ns_decompose(gp, theta)
            rounded = rounding.round_no_signaling(tables)
            hybrids = rounding.hybrid_family(tables, rounded, tables.game)
            rep = rounding.verify_ns_claims(tables, hybrids, lp_optimal=lp_opt)
            for r in rep.rows:
                rows.append(InequalityRow(f"sample {k}/{name}/{r.name}",
                                          r.lhs, r.rhs, r.tol))
    return InequalityReport(tuple(rows))


def _random_com_tables(rng_np, g, gp, use_seesaw, args):
    if use_seesaw:
        d1, d2 = 2, 2
        res = values.entangled_lower_bound(gp.to_float(), dims=(d1, d2),
                                           restarts=args.restarts,
                                           max_iters=40,
                                           seed=int(rng_np.integers(2**31)))
        s = res.witness
    else:
        s = quantum.random_strategy(rng_np, gp, 2, 2)
    s = quantum.symmetrize_second_prover(s, gp)
    return rounding.com_decompose(g, gp, s)


def _pcp_suite(args):
    if args.questions < 3:
        raise ValueError(f"{args.suite} needs --questions 3 or more: "
                         "a PCP game asks about triples of positions")


def _suite_lemma_game(args):
    _pcp_suite(args)
    rng = sampling.seeded(args.seed)
    rng_np = np.random.default_rng(args.seed)
    rows = []
    for k in range(args.samples):
        g = sampling.random_pcp_game(rng, args.questions)
        gp = transforms.oracularize_pcp_dummy(g)
        for name, seesaw in (("random", False), ("see-saw", True)):
            tables = _random_com_tables(rng_np, g, gp, seesaw, args)
            w = float(values.pcp_value(g).value)
            bound = rounding.COM_SOUNDNESS_CONSTANT * (1 - w) ** 2 \
                / tables.num_positions**2
            rows.append(InequalityRow(
                f"sample {k}/{name}: eps >= c(1-w)^2/Q^2 [w={w:.3f}]",
                bound, tables.eps, rounding.FLOAT_CLAIM_TOL))
    return InequalityReport(tuple(rows))


def _suite_com_claims(args):
    _pcp_suite(args)
    rng = sampling.seeded(args.seed)
    rng_np = np.random.default_rng(args.seed)
    rows = []
    for k in range(args.samples):
        g = sampling.random_pcp_game(rng, args.questions)
        gp = transforms.oracularize_pcp_dummy(g)
        for s in range(args.strategies):
            tables = _random_com_tables(rng_np, g, gp, False, args)
            rounded = rounding.round_com(tables)
            rep = rounding.verify_com_claims(g, tables, rounded)
            for r in rep.rows:
                rows.append(InequalityRow(f"sample {k}/strategy {s}/{r.name}",
                                          r.lhs, r.rhs, r.tol))
    return InequalityReport(tuple(rows))


def _suite_lemma_distance(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    d1 = d2 = args.dim
    for k in range(args.samples):
        mp = quantum.random_pvm(rng, d1, 2)
        np_ = quantum.random_pvm(rng, d2, 2)
        m = quantum.Povm(np.kron(mp.elements, np.eye(d2)[None]), True)
        n = quantum.Povm(np.kron(np.eye(d1)[None], np_.elements), True)
        phi = quantum.random_state(rng, d1 * d2)
        d2v, gap, twop = rounding.verify_lemma_distance(m, n, phi)
        rows.append(InequalityRow(f"sample {k}: D^2 <= 2(1-<psi|xi>)",
                                  d2v, gap, rounding.CHAIN_TOL))
        rows.append(InequalityRow(f"sample {k}: 2(1-<psi|xi>) <= 2p",
                                  gap, twop, rounding.CHAIN_TOL))
    return InequalityReport(tuple(rows))


#: games with strategies drawn per sample, and position lists per strategy,
#: in search of a move that can change the distribution
_SELECTION_DRAWS = 20
#: a commutator entry above this makes a pair of positions non-commuting
_COMMUTATOR_TOL = 1e-9


def _suite_claim_selection(args):
    """The selection-move bound on random strategies.  A move changes the
    distribution only if the moved operator fails to commute with one it
    passes, so each sample redraws its game and strategy, and then its
    position list (up to ``_SELECTION_DRAWS`` times each), until some
    ``t[j], t[i]`` with ``j < i`` is such a pair, and fails when none
    turns up.  At three positions a game has one triple, whose single
    measurement makes every pair commute, and a list of one position has
    no pair, so both are refused."""
    if args.questions < 4:
        raise ValueError("claim-selection needs --questions 4 or more: "
                         "at 3 positions every pair of moves commutes")
    if args.length < 2:
        raise ValueError("claim-selection needs --length 2 or more: "
                         "a move must pass another position")
    rng = sampling.seeded(args.seed)
    rng_np = np.random.default_rng(args.seed)
    rows = []
    for k in range(args.samples):
        for _ in range(_SELECTION_DRAWS):
            g = sampling.random_pcp_game(rng, args.questions)
            gp = transforms.oracularize_pcp_dummy(g)
            tables = _random_com_tables(rng_np, g, gp, False, args)
            clash = rounding.position_commutators(tables) > _COMMUTATOR_TOL
            if clash.any():
                break
        else:
            raise ValueError(f"sample {k}: no strategy with a non-commuting pair "
                             f"of positions in {_SELECTION_DRAWS} draws")
        qn = tables.num_positions
        for _ in range(_SELECTION_DRAWS):
            t_list = [rng.randrange(qn) for _ in range(args.length)]
            if any(clash[a, b] for j, a in enumerate(t_list) for b in t_list[j + 1:]):
                break
        else:
            raise ValueError(f"sample {k}: no position list with a non-commuting "
                             f"pair in {_SELECTION_DRAWS} draws")
        for i in range(1, args.length + 1):
            lhs, rhs = rounding.verify_claim_selection(tables, t_list, i)
            rows.append(InequalityRow(
                f"sample {k}: move t[{i}] of {t_list} first", lhs, rhs,
                rounding.FLOAT_CLAIM_TOL))
    return InequalityReport(tuple(rows))


_SUITES = {
    "lemma-wns": _suite_lemma_wns,
    "ns-claims": _suite_ns_claims,
    "lemma-game": _suite_lemma_game,
    "com-claims": _suite_com_claims,
    "lemma-distance": _suite_lemma_distance,
    "claim-selection": _suite_claim_selection,
}


def _cmd_verify(args):
    report = _SUITES[args.suite](args)
    if not report.rows:
        raise ValueError(f"verify {args.suite} checked no inequality "
                         f"(--samples {args.samples}, --strategies {args.strategies})")
    return _print_report(report, args.json, f"verify {args.suite} "
                         f"(seed={args.seed}, samples={args.samples})")


def build_parser():
    p = argparse.ArgumentParser(prog="provergames",
                                description="two-prover one-round games: "
                                            "values, transforms, rounding checks")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("value", help="compute a game value")
    pv.add_argument("kind", choices=["classical", "no-signaling", "entangled-lb",
                                     "multi-round", "pcp"])
    pv.add_argument("file")
    pv.add_argument("--dims", type=_dims, default="2,2",
                    help="see-saw local dimensions d1,d2")
    pv.add_argument("--restarts", type=_count, default=10)
    pv.add_argument("--max-iters", type=_count, default=100)
    pv.add_argument("--seed", type=_seed, default=0)
    pv.add_argument("--witness", help="write the witness strategy to this file")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=_cmd_value)

    pt = sub.add_parser("transform", help="transform a game and write it")
    pt.add_argument("kind", choices=["oracularize", "oracularize-dummy", "repeat"])
    pt.add_argument("file")
    pt.add_argument("-n", type=_count, default=2, help="repetition count")
    pt.add_argument("-o", "--output")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=_cmd_transform)

    pf = sub.add_parser("verify", help="run an inequality verification suite")
    pf.add_argument("suite", choices=sorted(_SUITES))
    pf.add_argument("--seed", type=_seed, default=0)
    pf.add_argument("--samples", type=_count, default=5)
    # ns-claims also checks the LP-optimal strategy, so 0 random ones is a run
    pf.add_argument("--strategies", type=_at_least(0), default=3)
    pf.add_argument("--questions", type=_count, default=None)
    pf.add_argument("--answers", type=_count, default=2)
    pf.add_argument("--rounds", type=_count, default=2)
    pf.add_argument("--restarts", type=_count, default=3)
    pf.add_argument("--dim", type=_count, default=2)
    pf.add_argument("--length", type=_count, default=3, help="claim-selection m")
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=_cmd_verify)

    pg = sub.add_parser("gen", help="build a game file from a formula")
    pg.add_argument("kind", choices=["pcp-1in3"])
    pg.add_argument("file")
    pg.add_argument("-o", "--output")
    pg.add_argument("--json", action="store_true")
    pg.set_defaults(func=_cmd_gen)

    pc = sub.add_parser("catalog", help="write a built-in game")
    pc.add_argument("name", choices=["chsh", "magic-square", "tiny-1in3"])
    pc.add_argument("-o", "--output")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=_cmd_catalog)
    return p


def run_cli(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    if getattr(args, "questions", None) is None and args.command == "verify":
        args.questions = {"lemma-wns": 2, "ns-claims": 2, "claim-selection": 4}.get(args.suite, 3)
    try:
        return args.func(args)
    except lp.VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (files.ParseError, FileNotFoundError, ValueError,
            scalars.ModeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
