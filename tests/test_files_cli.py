"""Game/formula file formats and the command-line interface."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from provergames import cli, files, rounding
from provergames.catalog import chsh, magic_square_game, tiny_1in3, tiny_1in3_formula
from provergames.games import PcpGame, validate
from provergames.rounding import InequalityReport, InequalityRow
from provergames.sampling import random_multi_round_game, random_pcp_game
from provergames.transforms import (
    oracularize_multi_round,
    oracularize_pcp,
    oracularize_pcp_dummy,
    parallel_repeat,
)


def _round_trip(game):
    text = files.serialize_game(game)
    parsed = files.parse_game(text)
    assert parsed == game
    assert parsed.meta == game.meta
    assert validate(parsed) == []
    return parsed


def test_round_trip_catalog_games():
    for g in (chsh(), magic_square_game(), tiny_1in3()):
        _round_trip(g)


def test_round_trip_transformed_games():
    rng = random.Random(1)
    g = random_pcp_game(rng, positions=4)
    _round_trip(oracularize_pcp(g))
    _round_trip(oracularize_pcp_dummy(g))  # fractional predicate entries
    _round_trip(parallel_repeat(chsh(), 2))
    mr = random_multi_round_game(rng)
    _round_trip(mr)
    _round_trip(oracularize_multi_round(mr))


def test_rational_string_parses_exactly():
    text = files.serialize_game(chsh())
    assert "1/4" in text
    g = files.parse_game(text)
    assert g.pi[0][0] == Fraction(1, 4)


def test_parse_rejects_bad_normalization_with_named_invariant():
    text = ("format_version 1\nkind two_prover_one_round\nmode rational\n"
            "counts 2 2 2 2\npi 0 0 1/1\npi 1 1 1/1\naccept 0 0 0 0\n")
    with pytest.raises(ValueError, match="normalization"):
        files.parse_game(text)


def test_parse_error_carries_line_number():
    text = ("format_version 1\nkind two_prover_one_round\nmode rational\n"
            "counts 2 2 2 2\npi 0 5 1/4\n")
    with pytest.raises(files.ParseError, match="line 5"):
        files.parse_game(text)


def test_parse_rejects_float_in_rational_mode():
    text = ("format_version 1\nkind two_prover_one_round\nmode rational\n"
            "counts 1 1 1 1\npi 0 0 0.5\n")
    with pytest.raises(files.ParseError, match="float"):
        files.parse_game(text)


def test_parse_rejects_unknown_directive():
    with pytest.raises(files.ParseError, match="unknown directive"):
        files.parse_game("format_version 1\nkind pcp3\ncounts 3 2\nbogus 1\n")


def _two_prover_file(body, mode="rational"):
    """A 2x2x2x2 game file."""
    return ("format_version 1\nkind two_prover_one_round\nmode " + mode
            + "\ncounts 2 2 2 2\n" + body)


def test_parse_later_line_overrides_earlier():
    def parse(body, mode="rational", header=_two_prover_file):
        return files.parse_game(header(body, mode))

    g = parse("pi 0 0 1/4\npi 1 1 1/2\npi 0 0 1/2\naccept 0 0 0 0\n")
    assert g.pi.tolist() == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    g = parse("pi 0 0 1\naccept 0 0 1 1\nrvalue 0 0 1 1 1/3\n")
    assert g.R[0, 0, 1, 1] == Fraction(1, 3)
    g = parse("pi 0 0 1\nrvalue 0 0 1 1 1/3\naccept 0 0 1 1\n")
    assert g.R[0, 0, 1, 1] == 1
    # one cell named many times between others: the last line wins
    body = "pi 0 0 1\n" + "".join(f"rvalue 0 0 1 1 {k}/50\naccept 0 0 {k % 2} 0\n"
                                  for k in range(50))
    g = parse(body)
    assert g.R[0, 0, 1, 1] == Fraction(49, 50)
    assert g.R[0, 0].tolist() == [[1, 0], [1, Fraction(49, 50)]]
    g = parse("pi 0 0 0.25\npi 1 1 0.5\npi 0 0 0.5\nrvalue 0 0 1 1 0.5\naccept 0 0 1 1\n",
              mode="float")
    assert g.pi.tolist() == [[0.5, 0.0], [0.0, 0.5]] and g.R[0, 0, 1, 1] == 1.0

    def pcp(body, mode):
        return "format_version 1\nkind pcp3\nmode rational\ncounts 4 2\n" + body

    g = parse("pi 0 1 2 1/4\npi 1 2 3 1/2\npi 0 1 2 1/2\nrvalue 1 2 3 0 0 1 1/2\n"
              "accept 0 1 2 1 1 1\naccept 1 2 3 0 0 1\nrvalue 0 1 2 1 1 1 1/3\n",
              header=pcp)
    assert g.triples.tolist() == [[0, 1, 2], [1, 2, 3]]
    assert g.pi.tolist() == [Fraction(1, 2), Fraction(1, 2)]
    assert g.R[0, 7] == Fraction(1, 3) and g.R[1, 1] == 1


@pytest.mark.parametrize("body, message", [
    ("pi 0 0 1\naccept 0 0 1 1\naccept 0 0 5 1\naccept 0 9 1 1\n",
     "line 7: index 5 out of range [0, 2)"),
    ("pi 0 0 1\naccept 0 0 1 1\nrvalue 0 0 1 1 x\naccept 0 7 1 1\n",
     "line 7: bad value 'x'"),
    ("pi 0 0 1\naccept 0 0 1\naccept 0 0 9 1\n", "line 6: expected 4 fields, got 3"),
    ("pi 0 0 1\naccept 0 0 1 1 1\nrvalue 0 0 1 1 1/2\n", "line 6: expected 4 fields, got 5"),
    ("pi 0 0 1\naccept 0 x 1 1\naccept 0 0 1 9\n", "line 6: indices must be integers"),
    # the pi lines are read before the predicate lines
    ("accept 0 0 7 1\npi 0 0 1\npi 0 3 1\n", "line 7: index 3 out of range [0, 2)"),
    ("accept 0 0 7 1\npi 0 0 0.5\n", "line 6: float value '0.5' in a rational-mode file"),
    # a bad range or value before a line with the wrong fields
    ("pi 0 0 1\naccept 0 0 9 1\naccept 0 0 1\n", "line 6: index 9 out of range [0, 2)"),
    ("pi 0 0 1\nrvalue 0 0 1 1 x\naccept 0 x 1 1\n", "line 6: bad value 'x'"),
    # on one line the range is checked before the value
    ("pi 0 0 1\nrvalue 0 0 1 9 x\n", "line 6: index 9 out of range [0, 2)"),
    ("pi 0 0 1\naccept 0 -1 1 1\n", "line 6: index -1 out of range [0, 2)"),
    ("pi 0 0 1\naccept 0 0 99999999999999999999 1\n",
     "line 6: index 99999999999999999999 out of range [0, 2)"),
])
def test_parse_error_names_the_first_bad_line(body, message):
    with pytest.raises(files.ParseError) as err:
        files.parse_game(_two_prover_file(body))
    assert str(err.value) == message


def test_formula_round_trip_and_errors():
    f = tiny_1in3_formula()
    assert files.parse_formula(files.serialize_formula(f)) == f
    with pytest.raises(files.ParseError, match="header"):
        files.parse_formula("2in3 3 1\n1 2 3\n")
    with pytest.raises(files.ParseError, match="three literals"):
        files.parse_formula("1in3 3 1\n1 2\n")
    with pytest.raises(files.ParseError, match="out of range"):
        files.parse_formula("1in3 3 1\n1 2 4\n")


def test_cli_value_classical(tmp_path, capsys):
    path = tmp_path / "chsh.game"
    path.write_text(files.serialize_game(chsh()))
    assert cli.run_cli(["value", "classical", str(path)]) == 0
    out = capsys.readouterr().out
    assert "3/4" in out


def test_cli_value_witness_file(tmp_path):
    path = tmp_path / "chsh.game"
    path.write_text(files.serialize_game(chsh()))
    wit = tmp_path / "witness.json"
    assert cli.run_cli(["value", "classical", str(path),
                        "--witness", str(wit)]) == 0
    data = json.loads(wit.read_text())
    assert data["type"] == "deterministic"
    assert len(data["f1"]) == 2


def test_cli_value_json_contains_rational_and_float(tmp_path, capsys):
    path = tmp_path / "chsh.game"
    path.write_text(files.serialize_game(chsh()))
    assert cli.run_cli(["value", "no-signaling", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"]["rational"] == "1/1"
    assert payload["value"]["float"] == 1.0


def test_cli_catalog_and_transform_pipeline(tmp_path, capsys):
    game_file = tmp_path / "tiny.game"
    assert cli.run_cli(["catalog", "tiny-1in3", "-o", str(game_file)]) == 0
    out_file = tmp_path / "tiny_orac.game"
    assert cli.run_cli(["transform", "oracularize", str(game_file),
                        "-o", str(out_file)]) == 0
    parsed = files.parse_game(out_file.read_text())
    assert parsed.meta["kind"] == "oracularized_pcp"
    assert cli.run_cli(["value", "classical", str(out_file)]) == 0
    assert "1/1" in capsys.readouterr().out


def test_cli_gen_from_formula(tmp_path):
    formula_file = tmp_path / "f.1in3"
    formula_file.write_text(files.serialize_formula(tiny_1in3_formula()))
    out = tmp_path / "f.game"
    assert cli.run_cli(["gen", "pcp-1in3", str(formula_file), "-o", str(out)]) == 0
    assert files.parse_game(out.read_text()) == tiny_1in3()


def test_cli_exit_codes_for_usage_and_parse_errors(tmp_path):
    assert cli.run_cli(["value", "classical", str(tmp_path / "missing.game")]) == 2
    bad = tmp_path / "bad.game"
    bad.write_text("format_version 1\nkind nonsense\ncounts 1\n")
    assert cli.run_cli(["value", "classical", str(bad)]) == 2
    assert cli.run_cli(["bogus-subcommand"]) == 2
    # wrong game kind for the requested value
    game_file = tmp_path / "tiny.game"
    cli.run_cli(["catalog", "tiny-1in3", "-o", str(game_file)])
    assert cli.run_cli(["value", "classical", str(game_file)]) == 2


@pytest.mark.parametrize("kind, counts, body", [
    ("two_prover_one_round", "-1 2 2 2", "pi 0 0 1\n"),
    ("pcp3", "3 -2", "pi 0 1 2 1\n"),
    ("multi_round", "-2 2 2", ""),
    ("multi_round", "2 2 0", ""),
])
def test_parse_refuses_counts_below_one_at_their_line(kind, counts, body):
    text = f"format_version 1\nkind {kind}\nmode rational\ncounts {counts}\n{body}"
    with pytest.raises(files.ParseError) as err:
        files.parse_game(text)
    low = min(map(int, counts.split()))
    assert str(err.value) == f"line 4: counts must be positive, got {low}"


@pytest.mark.parametrize("command", [["value", "pcp"], ["transform", "oracularize"],
                                     ["transform", "oracularize-dummy"]])
def test_cli_refuses_a_pcp_alphabet_of_zero(tmp_path, capsys, command):
    game_file, out = tmp_path / "empty.game", tmp_path / "out.game"
    game_file.write_text("format_version 1\nkind pcp3\nmode rational\ncounts 3 0\n"
                         "pi 0 1 2 1\n")
    output = ["-o", str(out)] if command[0] == "transform" else []
    assert cli.run_cli(command + [str(game_file)] + output) == 2
    assert capsys.readouterr().err == "error: line 4: counts must be positive, got 0\n"
    assert not out.exists()
    # a game built in memory is refused by validate
    game = PcpGame(3, 0, [(0, 1, 2)], [Fraction(1)], [[]])
    assert validate(game) == ["alphabet_size must be positive"]


@pytest.mark.parametrize("raw", ["1e7", "0", "-5"])
def test_cli_rejects_bad_size_guard_setting(tmp_path, monkeypatch, capsys, raw):
    game_file = tmp_path / "chsh.game"
    assert cli.run_cli(["catalog", "chsh", "-o", str(game_file)]) == 0
    monkeypatch.setenv("PROVERGAMES_MAX_TABLE", raw)
    assert cli.run_cli(["value", "classical", str(game_file)]) == 2
    err = capsys.readouterr().err
    assert f"PROVERGAMES_MAX_TABLE must be a positive integer, got {raw!r}" in err


@pytest.mark.parametrize("line", ["pi 0 0 1/0", "pi 0 0 abc", "label q1 x foo",
                                  "label q1 -1 foo"])
def test_cli_names_the_line_of_a_bad_scalar_or_label(tmp_path, capsys, line):
    lines = files.serialize_game(chsh()).splitlines()
    lines.insert(4, line)  # after the header, as line 5
    game_file = tmp_path / "bad.game"
    game_file.write_text("\n".join(lines) + "\n")
    assert cli.run_cli(["value", "classical", str(game_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 5: "), err


_PLANTED_CERTIFICATE_DEFECT = """
import sys
from provergames import cli, lp
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
lp.check_certificates = lambda program, sol: ["planted defect"]
sys.exit(cli.run_cli(sys.argv[1:]))
"""

# eps of the oracularized game no longer equals the mean of the per-length
# failure probabilities eps_k
_PLANTED_EPS_DEFECT = """
import sys
from fractions import Fraction
from provergames import cli, rounding
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
real = rounding.eval_two_prover
rounding.eval_two_prover = lambda game, strategy: real(game, strategy) - Fraction(1, 97)
sys.exit(cli.run_cli(sys.argv[1:]))
"""

# the LP of the no-signaling value ends infeasible, which its polytope never is
_PLANTED_INFEASIBLE_LP = """
import sys
from provergames import cli, lp, values
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
values.solve_lp = lambda program: lp.LpSolution(lp.INFEASIBLE)
sys.exit(cli.run_cli(sys.argv[1:]))
"""


# phase 1 of the simplex ends unbounded, which its objective never is
_PLANTED_PHASE1_UNBOUNDED = """
import sys
from provergames import cli, lp
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
real = lp._Tableau.run
lp._Tableau.run = lambda self, allowed, phase: (
    lp.UNBOUNDED if phase == "phase1_pivots" else real(self, allowed, phase))
sys.exit(cli.run_cli(sys.argv[1:]))
"""

# the rounded strategy's first round no longer follows the second prover's
# first-round distribution, so h<1> is not the family it induces
_PLANTED_ROUNDED_DEFECT = """
import sys
from provergames import cli, games, rounding
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
real = rounding.round_no_signaling
def reversed_first_round(tables):
    s = real(tables)
    return games.MultiRoundStrategy(s.q_count, s.a_count, s.rounds,
                                    (s.tables[0][:, ::-1],) + s.tables[1:])
rounding.round_no_signaling = reversed_first_round
sys.exit(cli.run_cli(sys.argv[1:]))
"""

# eps(r) drops by 1, so p_r falls below 1 - eps(r)
_PLANTED_EPS_R_DEFECT = """
import dataclasses, sys
from provergames import cli, rounding
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
real = rounding.ns_decompose
def lowered(gprime, theta):
    t = real(gprime, theta)
    return dataclasses.replace(t, eps_k={**t.eps_k, t.rounds: t.eps_k[t.rounds] - 1})
rounding.ns_decompose = lowered
sys.exit(cli.run_cli(sys.argv[1:]))
"""

# every trace distance reads 2, so D^2 = 4 exceeds 2(1 - <psi|xi>)
_PLANTED_DISTANCE_DEFECT = """
import sys
from provergames import cli, quantum
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
quantum.pure_state_trace_distance = lambda a, b: 2.0
sys.exit(cli.run_cli(sys.argv[1:]))
"""

# the d1 and d4 distance tables read -1, so the selection-move bound is negative
_PLANTED_SELECTION_DEFECT = """
import dataclasses, sys
import numpy as np
from provergames import cli, rounding
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
real = rounding.com_decompose
def negative_distances(game, gprime, strategy):
    t = real(game, gprime, strategy)
    return dataclasses.replace(t, d1=np.full_like(t.d1, -1.0),
                               d4=np.full_like(t.d4, -1.0))
rounding.com_decompose = negative_distances
sys.exit(cli.run_cli(sys.argv[1:]))
"""

_NS_CLAIMS = ["verify", "ns-claims", "--seed", "3", "--samples", "1", "--strategies", "1"]


def _run_optimized(script, *args):
    """Run ``script`` under ``python -O`` with the source tree importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-O", "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["verify", "value"])
def test_cli_catches_planted_certificate_defect_under_optimize_flag(tmp_path, command):
    if command == "verify":
        args = ["verify", "ns-claims", "--seed", "3", "--samples", "1",
                "--strategies", "1"]
    else:
        game_file = tmp_path / "chsh.game"
        game_file.write_text(files.serialize_game(chsh()))
        args = ["value", "no-signaling", str(game_file)]
    proc = _run_optimized(_PLANTED_CERTIFICATE_DEFECT, *args)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("verification failed: "), proc.stderr
    assert "simplex certificate check failed: ['planted defect']" in proc.stderr


def test_cli_catches_planted_rounding_defect_under_optimize_flag():
    proc = _run_optimized(_PLANTED_EPS_DEFECT, "verify", "ns-claims", "--seed", "3",
                          "--samples", "1", "--strategies", "1")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("verification failed: eps = "), proc.stderr
    assert "is not the mean" in proc.stderr


def test_cli_catches_planted_infeasible_lp_under_optimize_flag(tmp_path):
    game_file = tmp_path / "chsh.game"
    game_file.write_text(files.serialize_game(chsh()))
    proc = _run_optimized(_PLANTED_INFEASIBLE_LP, "value", "no-signaling", str(game_file))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.strip() == "verification failed: no-signaling LP ended infeasible"


@pytest.mark.parametrize("script, args, message", [
    (_PLANTED_PHASE1_UNBOUNDED, ["value", "no-signaling", None],
     "phase 1 of the simplex ended unbounded"),
    (_PLANTED_ROUNDED_DEFECT, _NS_CLAIMS, "not the rounded strategy's"),
    (_PLANTED_EPS_R_DEFECT, _NS_CLAIMS, "is below 1 - eps(r) = "),
    (_PLANTED_DISTANCE_DEFECT, ["verify", "lemma-distance", "--seed", "1", "--samples", "1"],
     "distance chain D^2 <= 2(1-<psi|xi>) <= 2p fails: (4.0, "),
    (_PLANTED_SELECTION_DEFECT, ["verify", "claim-selection", "--seed", "1", "--samples", "1"],
     "over the bound -3.0"),
], ids=["phase-1", "h1-identity", "second-prover-win", "lemma-distance", "claim-selection"])
def test_cli_catches_planted_check_defects_under_optimize_flag(tmp_path, script, args, message):
    game_file = tmp_path / "chsh.game"
    game_file.write_text(files.serialize_game(chsh()))
    proc = _run_optimized(script, *[str(game_file) if a is None else a for a in args])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("verification failed: "), proc.stderr
    assert message in proc.stderr, proc.stderr


def test_cli_verify_json_report_of_a_float_suite(capsys):
    assert cli.run_cli(["verify", "com-claims", "--seed", "3", "--samples", "1",
                        "--strategies", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert all(row["holds"] is True for row in payload["rows"])


def test_cli_verify_suites_exit_zero():
    assert cli.run_cli(["verify", "lemma-wns", "--seed", "7",
                        "--samples", "3"]) == 0
    assert cli.run_cli(["verify", "ns-claims", "--seed", "3", "--samples", "1",
                        "--strategies", "2"]) == 0
    assert cli.run_cli(["verify", "com-claims", "--seed", "3", "--samples", "1",
                        "--strategies", "1"]) == 0
    assert cli.run_cli(["verify", "lemma-distance", "--seed", "1",
                        "--samples", "3"]) == 0
    assert cli.run_cli(["verify", "claim-selection", "--seed", "1",
                        "--samples", "1"]) == 0
    assert cli.run_cli(["verify", "lemma-game", "--seed", "1",
                        "--samples", "1", "--restarts", "1"]) == 0


def test_cli_claim_selection_moves_change_the_distribution(monkeypatch, capsys):
    assert cli.run_cli(["verify", "claim-selection", "--seed", "1", "--samples", "2",
                        "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 6
    for sample in ("sample 0", "sample 1"):
        assert max(r["lhs"]["float"] for r in rows if r["name"].startswith(sample)) > 1e-6
    # with zero distances the bound is 0, which a move that changes the
    # distribution exceeds
    real = rounding.com_decompose

    def zero_distances(*args):
        t = real(*args)
        return dataclasses.replace(t, d1=np.zeros_like(t.d1), d4=np.zeros_like(t.d4))

    monkeypatch.setattr(rounding, "com_decompose", zero_distances)
    assert cli.run_cli(["verify", "claim-selection", "--seed", "1", "--samples", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed: selection move changes the distribution by ")
    assert err.rstrip().endswith("over the bound 0.0")


def test_cli_claim_selection_refuses_a_run_that_tests_nothing(monkeypatch, capsys):
    for args, message in ((["--questions", "3"], "needs --questions 4 or more"),
                          (["--length", "1"], "needs --length 2 or more")):
        assert cli.run_cli(["verify", "claim-selection", "--seed", "1", *args]) == 2
        assert message in capsys.readouterr().err
    # every pair commuting: the draws give up instead of checking zeros
    monkeypatch.setattr(rounding, "position_commutators",
                        lambda tables: np.zeros((tables.num_positions,) * 2))
    assert cli.run_cli(["verify", "claim-selection", "--seed", "1", "--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert "no strategy with a non-commuting pair of positions in 20 draws" in err


def test_cli_verify_exit_one_on_perturbed_inequality(monkeypatch, capsys):
    # harness: artificially inflate every measured LHS after the fact; the
    # suite must notice and exit 1
    real = rounding.verify_ns_claims

    def perturbed(tables, hybrids, lp_optimal=False):
        report = real(tables, hybrids, lp_optimal=lp_optimal)
        rows = tuple(InequalityRow(r.name, r.lhs + 1, r.rhs, r.tol)
                     for r in report.rows)
        return InequalityReport(rows)

    monkeypatch.setattr(rounding, "verify_ns_claims", perturbed)
    code = cli.run_cli(["verify", "ns-claims", "--seed", "3", "--samples", "1",
                        "--strategies", "1"])
    assert code == 1
    assert "VIOLAT" in capsys.readouterr().out


def test_cli_verify_exit_one_on_perturbed_lemma(monkeypatch):
    real = rounding.verify_lemma_distance

    def perturbed(m, n, phi):
        d2, gap, twop = real(m, n, phi)
        return d2 + 0.5, gap, twop

    monkeypatch.setattr(rounding, "verify_lemma_distance", perturbed)
    assert cli.run_cli(["verify", "lemma-distance", "--seed", "1",
                        "--samples", "2"]) == 1


def test_cli_verify_json_report(capsys):
    assert cli.run_cli(["verify", "lemma-wns", "--seed", "7", "--samples", "2",
                        "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert set(row) >= {"name", "lhs", "rhs", "holds"}
        assert "rational" in row["lhs"]  # exact values rendered as p/q


def test_cli_value_all_kinds(tmp_path, capsys):
    mr = random_multi_round_game(random.Random(0))
    mr_file = tmp_path / "mr.game"
    mr_file.write_text(files.serialize_game(mr))
    assert cli.run_cli(["value", "multi-round", str(mr_file)]) == 0

    pcp_file = tmp_path / "pcp.game"
    cli.run_cli(["catalog", "tiny-1in3", "-o", str(pcp_file)])
    assert cli.run_cli(["value", "pcp", str(pcp_file)]) == 0

    chsh_file = tmp_path / "chsh.game"
    chsh_file.write_text(files.serialize_game(chsh()))
    wit = tmp_path / "quantum.json"
    assert cli.run_cli(["value", "entangled-lb", str(chsh_file),
                        "--dims", "2,2", "--restarts", "4", "--seed", "7",
                        "--witness", str(wit)]) == 0
    out = capsys.readouterr().out
    assert "0.853" in out
    data = json.loads(wit.read_text())
    assert data["type"] == "quantum" and data["d1"] == 2


def test_cli_transform_repeat_and_dummy(tmp_path):
    chsh_file = tmp_path / "chsh.game"
    chsh_file.write_text(files.serialize_game(chsh()))
    rep_file = tmp_path / "chsh2.game"
    assert cli.run_cli(["transform", "repeat", "-n", "2", str(chsh_file),
                        "-o", str(rep_file)]) == 0
    assert files.parse_game(rep_file.read_text()) == parallel_repeat(chsh(), 2)

    pcp_file = tmp_path / "tiny.game"
    cli.run_cli(["catalog", "tiny-1in3", "-o", str(pcp_file)])
    dummy_file = tmp_path / "dummy.game"
    assert cli.run_cli(["transform", "oracularize-dummy", str(pcp_file),
                        "-o", str(dummy_file)]) == 0
    parsed = files.parse_game(dummy_file.read_text())
    assert parsed.meta["kind"] == "oracularized_pcp_dummy"


def test_float_mode_round_trip():
    g = oracularize_pcp_dummy(tiny_1in3()).to_float()
    text = files.serialize_game(g)
    parsed = files.parse_game(text)
    assert parsed == g
    assert parsed.mode == "float"


def test_formula_repeated_variable_has_line_number():
    with pytest.raises(files.ParseError, match="line 2.*repeats"):
        files.parse_formula("1in3 3 1\n1 -1 2\n")


def test_lp_size_is_refused_before_any_row_is_built(capsys):
    argv = ["verify", "lemma-wns", "--rounds", "4", "--seed", "7", "--samples", "1"]
    tracemalloc.start()
    try:
        code = cli.run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "error: LP size 29910 vars x 2864 constraints exceeds guard 5000 x 20000\n")
    # building the 2864 dense rows before the check peaked at 658 MiB; the
    # refusal now peaks at about 3.4 MiB
    assert peak < 32 * 2**20, peak


# each integer option of the CLI at 0, -1 and a malformed value: the exit
# code and the last line on stderr; None stands for the catalog CHSH file
_VALUE = ["value", "entangled-lb", None, "--max-iters", "2"]
_OPTION_CASES = [
    (_VALUE, "--restarts", 1), (_VALUE, "--max-iters", 1), (_VALUE, "--seed", 0),
    (["transform", "repeat", None, "-o", os.devnull], "-n", 1),
    (["verify", "lemma-wns", "--samples", "1"], "--seed", 0),
    (["verify", "lemma-wns"], "--samples", 1),
    (["verify", "com-claims", "--samples", "1"], "--strategies", 0),
    (["verify", "lemma-wns", "--samples", "1"], "--questions", 1),
    (["verify", "lemma-wns", "--samples", "1"], "--answers", 1),
    (["verify", "lemma-wns", "--samples", "1"], "--rounds", 1),
    (["verify", "lemma-game", "--samples", "1"], "--restarts", 1),
    (["verify", "lemma-distance", "--samples", "1"], "--dim", 1),
    (["verify", "claim-selection", "--samples", "1"], "--length", 1),
]
_OPTION_RUNS = {
    "--seed": (0, None),  # seed 0 is a valid run
    "--strategies": (2, "error: verify com-claims checked no inequality "
                        "(--samples 1, --strategies 0)"),
}


def _option_runs():
    for base, option, low in _OPTION_CASES:
        command = " ".join(base[:2])
        for raw in ("0", "-1", "x"):
            if raw == "x":
                expected = 2, f"argument {option}: expected an integer, got 'x'"
            elif int(raw) < low:
                expected = 2, f"argument {option}: must be at least {low}, got {raw}"
            else:
                expected = _OPTION_RUNS[option]
            yield pytest.param(base + [option, raw], *expected,
                               id=f"{command} {option} {raw}")
    for raw, message in (("2", "expected d1,d2, got '2'"),
                         ("0,2", "must be at least 1, got 0"),
                         ("2,x", "expected an integer, got 'x'"),
                         ("1,1,1", "expected d1,d2, got '1,1,1'")):
        yield pytest.param(_VALUE + ["--dims", raw], 2, f"argument --dims: {message}",
                           id=f"value --dims {raw}")
    yield pytest.param(["verify", "lemma-game", "--samples", "1", "--questions", "2"], 2,
                       "error: lemma-game needs --questions 3 or more: a PCP game asks "
                       "about triples of positions", id="verify lemma-game --questions 2")


_OPTION_PARAMS = list(_option_runs())


def _with_game(argv, game_file):
    return [str(game_file) if a is None else a for a in argv]


@pytest.mark.parametrize("argv, code, message", _OPTION_PARAMS)
def test_cli_checks_each_option_when_parsing(tmp_path, capsys, argv, code, message):
    game_file = tmp_path / "chsh.game"
    game_file.write_text(files.serialize_game(chsh()))
    assert cli.run_cli(_with_game(argv, game_file)) == code
    err = capsys.readouterr().err.strip()
    if message is None:
        assert err == ""
    else:
        assert err.splitlines()[-1].endswith(message), err


_OPTION_CHECKS = """
import contextlib, io, json, sys
from provergames import cli
if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_cli(argv)
    lines = err.getvalue().strip().splitlines()
    results.append([code, lines[-1] if lines else None])
print(json.dumps(results))
"""


def test_cli_checks_each_option_under_optimize_flag(tmp_path):
    game_file = tmp_path / "chsh.game"
    game_file.write_text(files.serialize_game(chsh()))
    cases = [p.values for p in _OPTION_PARAMS]
    proc = _run_optimized(_OPTION_CHECKS,
                          json.dumps([_with_game(argv, game_file) for argv, _, _ in cases]))
    assert proc.returncode == 0, proc.stderr
    for (argv, code, message), (got_code, got_line) in zip(cases, json.loads(proc.stdout)):
        assert got_code == code, argv
        assert (got_line is None) if message is None else got_line.endswith(message), argv
