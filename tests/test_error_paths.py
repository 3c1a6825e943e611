"""Error handling across modules: wrong kinds, shapes, and modes fail loudly."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from provergames import cli, files, scalars
from provergames.catalog import chsh, tiny_1in3
from provergames.games import (
    DeterministicBipartiteStrategy,
    DimensionError,
    MultiRoundGame,
    MultiRoundStrategy,
    PcpGame,
    PcpProofDistribution,
    eval_multi_round,
    eval_pcp,
    eval_two_prover,
    validate,
)
from provergames.lp import Constraint
from provergames.quantum import psd_sqrt
from provergames.rounding import (
    com_decompose,
    ns_decompose,
    verify_claim_selection,
)
from provergames.sampling import (
    random_multi_round_game,
    random_pcp_game,
    random_two_prover_game,
)
from provergames.transforms import (
    honest_strategy_from_multi_round,
    honest_strategy_from_proof,
    oracularize_multi_round,
    oracularize_pcp_dummy,
)


def test_bad_scalar_mode_rejected():
    with pytest.raises(ValueError):
        scalars.check_mode("decimal")


def test_eval_multi_round_dimension_mismatch():
    g = random_multi_round_game(random.Random(0))
    s = MultiRoundStrategy(3, 2, 2, (
        tuple((Fraction(1, 2), Fraction(1, 2)) for _ in range(3)),
        tuple((Fraction(1, 2), Fraction(1, 2)) for _ in range(18))))
    with pytest.raises(DimensionError):
        eval_multi_round(g, s)


def test_eval_two_prover_rejects_answers_outside_the_game():
    # as an index, -1 would wrap to the last answer
    for f1 in ((-1, 0), (2, 0)):
        with pytest.raises(DimensionError, match=r"prover 1 answers .* to question 0"):
            eval_two_prover(chsh(), DeterministicBipartiteStrategy(f1, (0, 0)))
    with pytest.raises(DimensionError, match=r"prover 2 answers 5 to question 1"):
        eval_two_prover(chsh(), DeterministicBipartiteStrategy((0, 0), (0, 5)))


def test_eval_pcp_dimension_mismatch():
    g = tiny_1in3()
    with pytest.raises(DimensionError):
        eval_pcp(g, PcpProofDistribution.point_mass((0, 0, 0), 2))


def test_validate_proof_mixture():
    ok = PcpProofDistribution(3, 2, (Fraction(1, 2), Fraction(1, 2)),
                              proofs=((0, 0, 0), (1, 1, 1)))
    assert validate(ok) == []
    short = PcpProofDistribution(3, 2, (Fraction(1),), proofs=((0, 0),))
    assert any("length" in r for r in validate(short))
    unnormalized = PcpProofDistribution(3, 2, (Fraction(1, 3),), proofs=((0, 0, 0),))
    assert any("normalization" in r for r in validate(unnormalized))
    mixed = PcpProofDistribution(3, 2, (0.5, Fraction(1, 2)), proofs=((0, 0, 0), (1, 1, 1)))
    assert validate(mixed) == ["mixture weights: entry 0.5 does not match mode rational"]
    dense = PcpProofDistribution(3, 2, (Fraction(1, 8),) * 7 + (0.125,))
    assert validate(dense) == ["theta: entry 0.125 does not match mode rational"]


@pytest.mark.parametrize("mode", [scalars.RATIONAL, scalars.FLOAT])
def test_validate_proof_letters_outside_the_alphabet(mode):
    game = tiny_1in3()
    assert (game.positions, game.alphabet_size) == (4, 2)
    for letter in (5, -1):
        proof = PcpProofDistribution.point_mass((0, 0, 0, letter), 2, mode)
        assert validate(proof) == [f"proof 0 has letter {letter} at position 3, "
                                   "outside 0..1"]
    half = scalars.one(mode) / 2
    mix = PcpProofDistribution(4, 2, (half, half), mode,
                               proofs=((1, 0, 1, 0), (0, 2, 1, -1)))
    assert validate(mix) == ["proof 1 has letter 2 at position 1, outside 0..1"]
    assert validate(PcpProofDistribution.point_mass((1, 0, 1, 0), 2, mode)) == []


def test_validate_multi_round_strategy():
    bad = MultiRoundStrategy(2, 2, 1, ((
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(1), Fraction(0))),))
    assert any("normalization" in r for r in validate(bad))
    mixed = MultiRoundStrategy(1, 2, 1, [[[0.5, Fraction(1, 2)]]], "rational")
    assert validate(mixed) == ["round 1 entry 0: entry 0.5 does not match mode rational"]
    # once per suspect round row, with the row's other faults after it
    rows = MultiRoundStrategy(2, 2, 2, (
        ((Fraction(1), Fraction(0)), (0.5, Fraction(1, 4))),
        ((Fraction(1, 2),) * 2,) * 7 + ((Fraction(1), 0.0),)))
    assert validate(rows) == [
        "round 1 entry 1: entry 0.5 does not match mode rational",
        "round 1 entry 1: normalization violated, sum = 0.75",
        "round 2 entry 7: entry 0.0 does not match mode rational"]


def test_validate_multi_round_strategy_with_too_few_round_tables():
    one_round = MultiRoundStrategy(2, 2, 2, (((Fraction(1), Fraction(0)),) * 2,))
    assert validate(one_round) == ["strategy has 1 round tables, expected 2"]


def test_validate_pcp_game_rejects_a_repeated_triple():
    row = (Fraction(1),) * 8
    twice = PcpGame(3, 2, ((0, 1, 2), (0, 1, 2)), (Fraction(1, 2),) * 2, (row, row))
    assert validate(twice) == ["triple (0, 1, 2) is listed 2 times"]
    unsorted = PcpGame(4, 2, ((0, 1, 3), (0, 1, 2)), (Fraction(1, 2),) * 2, (row, row))
    assert validate(unsorted) == ["triples are not in sorted order"]


def test_validate_flags_float_predicate_entries_of_rational_single_prover_games():
    multi_round = MultiRoundGame(1, 2, 1, [Fraction(1)], [0.5, Fraction(1)])
    assert validate(multi_round) == ["R: entry 0.5 does not match mode rational"]
    pcp = PcpGame(3, 2, [(0, 1, 2)], [Fraction(1)], [[0.5] + [Fraction(0)] * 7])
    assert validate(pcp) == ["R: entry 0.5 does not match mode rational"]


def test_constraint_rejects_unknown_relation():
    with pytest.raises(ValueError):
        Constraint((Fraction(1),), "<", Fraction(1))


def test_honest_proof_strategy_errors():
    g = tiny_1in3()
    gp = oracularize_pcp_dummy(g)
    with pytest.raises(ValueError, match="length"):
        honest_strategy_from_proof((0, 0), gp)
    with pytest.raises(ValueError, match="kind"):
        honest_strategy_from_proof((0, 0, 1, 0), chsh())


def test_honest_multi_round_requires_deterministic():
    g = random_multi_round_game(random.Random(2))
    gp = oracularize_multi_round(g)
    uniform = MultiRoundStrategy(2, 2, 2, (
        tuple((Fraction(1, 2), Fraction(1, 2)) for _ in range(2)),
        tuple((Fraction(1, 2), Fraction(1, 2)) for _ in range(8))))
    with pytest.raises(ValueError, match="deterministic"):
        honest_strategy_from_multi_round(uniform, g, gp)


def test_psd_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ns_decompose_rejects_float_mode():
    g = random_multi_round_game(random.Random(3))
    gp = oracularize_multi_round(g)
    from provergames.games import uniform_bipartite
    from provergames.rounding import normalize_answer_shape

    theta = normalize_answer_shape(
        uniform_bipartite(gp.q1_count, gp.q2_count, gp.a1_count, gp.a2_count), gp)
    with pytest.raises(scalars.ModeError):
        ns_decompose(gp.to_float(), theta)
    with pytest.raises(ValueError, match="kind"):
        ns_decompose(chsh(), theta)


def test_com_decompose_rejects_wrong_kind():
    from provergames import quantum

    g = random_pcp_game(random.Random(4), positions=3)
    gp = oracularize_pcp_dummy(g)
    s = quantum.random_strategy(np.random.default_rng(0), gp, 2, 2)
    s = quantum.symmetrize_second_prover(s, gp)
    with pytest.raises(ValueError, match="kind"):
        com_decompose(g, chsh(), s)


def test_claim_selection_index_out_of_range():
    from provergames import quantum

    g = random_pcp_game(random.Random(5), positions=3)
    gp = oracularize_pcp_dummy(g)
    s = quantum.random_strategy(np.random.default_rng(1), gp, 2, 2)
    s = quantum.symmetrize_second_prover(s, gp)
    tables = com_decompose(g, gp, s)
    with pytest.raises(ValueError):
        verify_claim_selection(tables, [0, 1], 3)


def test_claim_selection_rejects_positions_outside_the_game():
    # a negative entry would otherwise read the last position, and one past
    # the end would fail with a bare IndexError
    from provergames import quantum

    g = random_pcp_game(random.Random(48), positions=4)
    gp = oracularize_pcp_dummy(g)
    s = quantum.random_strategy(np.random.default_rng(48), gp, 2, 2)
    tables = com_decompose(g, gp, quantum.symmetrize_second_prover(s, gp))
    for t_list in ([-1, 2], [4, 2]):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            verify_claim_selection(tables, t_list, 2)


def test_file_header_errors():
    with pytest.raises(files.ParseError, match="missing kind"):
        files.parse_game("format_version 1\ncounts 2 2 2 2\n")
    with pytest.raises(files.ParseError, match="format_version"):
        files.parse_game("format_version 9\nkind pcp3\ncounts 3 2\n")
    with pytest.raises(files.ParseError, match="duplicate"):
        files.parse_game("format_version 1\nformat_version 1\nkind pcp3\ncounts 3 2\n")
    with pytest.raises(files.ParseError, match="mode"):
        files.parse_game("format_version 1\nkind pcp3\nmode decimal\ncounts 3 2\n")


def test_cli_witness_variants(tmp_path):
    mr = random_multi_round_game(random.Random(6))
    mr_file = tmp_path / "mr.game"
    mr_file.write_text(files.serialize_game(mr))
    wit = tmp_path / "w.json"
    assert cli.run_cli(["value", "multi-round", str(mr_file),
                        "--witness", str(wit)]) == 0
    assert json.loads(wit.read_text())["type"] == "multi_round"

    pcp_file = tmp_path / "p.game"
    cli.run_cli(["catalog", "tiny-1in3", "-o", str(pcp_file)])
    assert cli.run_cli(["value", "pcp", str(pcp_file),
                        "--witness", str(wit)]) == 0
    assert json.loads(wit.read_text())["type"] == "proof"

    two_file = tmp_path / "t.game"
    two_file.write_text(files.serialize_game(
        random_two_prover_game(random.Random(7), 2, 2, 2, 2)))
    assert cli.run_cli(["value", "no-signaling", str(two_file),
                        "--witness", str(wit)]) == 0
    assert json.loads(wit.read_text())["type"] == "bipartite"


def test_cli_json_on_catalog_and_gen(tmp_path, capsys):
    out = tmp_path / "c.game"
    assert cli.run_cli(["catalog", "chsh", "-o", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == [2, 2, 2, 2]

    formula_file = tmp_path / "f.1in3"
    formula_file.write_text("1in3 3 1\n1 2 3\n")
    game_out = tmp_path / "g.game"
    assert cli.run_cli(["gen", "pcp-1in3", str(formula_file), "-o",
                        str(game_out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["positions"] == 3 and payload["clauses"] == 1
