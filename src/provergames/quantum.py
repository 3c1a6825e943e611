"""Finite-dimensional quantum strategies: states, POVMs, induced tables.

Strategies live in tensor-product form: the first prover's operators act on
the left factor, the second prover's on the right, so commutation between
the provers is structural.  All matrices are complex numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scalars
from .games import BipartiteStrategy, DimensionError
from .indexing import decode_tuple, encode_tuple

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
PROJECTIVE_TOL = 1e-9
UNIT_TOL = 1e-8


def is_hermitian(mat, tol=HERMITIAN_TOL):
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol)


def min_eigenvalue(mat):
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())


@dataclass(frozen=True, eq=False)
class Povm:
    """Outcome-indexed measurement; ``projective`` asserts M^2 = M."""

    elements: tuple
    projective: bool = False

    def __post_init__(self):
        object.__setattr__(self, "elements",
                           tuple(np.asarray(e, dtype=complex) for e in self.elements))

    @property
    def dim(self):
        return self.elements[0].shape[0]

    def __len__(self):
        return len(self.elements)


def validate_povm(povm):
    report = []
    d = povm.dim
    total = np.zeros((d, d), dtype=complex)
    for i, e in enumerate(povm.elements):
        if e.shape != (d, d):
            report.append(f"element {i} has shape {e.shape}, expected {(d, d)}")
            continue
        if not is_hermitian(e):
            report.append(f"element {i} is not Hermitian within {HERMITIAN_TOL}")
        elif min_eigenvalue(e) < -PSD_TOL:
            report.append(f"element {i} has eigenvalue below -{PSD_TOL}")
        if povm.projective and np.max(np.abs(e @ e - e)) > PROJECTIVE_TOL:
            report.append(f"element {i} is not projective within {PROJECTIVE_TOL}")
        total += e
    if np.max(np.abs(total - np.eye(d))) > COMPLETENESS_TOL:
        report.append(f"elements do not sum to the identity within {COMPLETENESS_TOL}")
    return report


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """Shared pure state plus per-question POVM families for both provers."""

    d1: int
    d2: int
    state: np.ndarray  # unit vector in C^(d1*d2)
    povms1: tuple  # one Povm (outcomes = A1) per first-prover question
    povms2: tuple  # one Povm (outcomes = A2) per second-prover question
    meta: dict | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=complex).ravel())
        object.__setattr__(self, "povms1", tuple(self.povms1))
        object.__setattr__(self, "povms2", tuple(self.povms2))

    def state_matrix(self):
        return self.state.reshape(self.d1, self.d2)

    @property
    def projective(self):
        return all(p.projective for p in self.povms1 + self.povms2)


def validate_strategy(s):
    report = []
    if len(s.state) != s.d1 * s.d2:
        report.append("state dimension does not match d1*d2")
        return report
    norm = np.linalg.norm(s.state)
    if abs(norm - 1.0) > HERMITIAN_TOL:
        report.append(f"state norm {norm!r} is not 1 within {HERMITIAN_TOL}")
    for which, povms, d in (("prover 1", s.povms1, s.d1), ("prover 2", s.povms2, s.d2)):
        for q, p in enumerate(povms):
            if p.dim != d:
                report.append(f"{which} POVM {q} has dimension {p.dim}, expected {d}")
                continue
            for msg in validate_povm(p):
                report.append(f"{which} question {q}: {msg}")
    return report


def povm_stack(povms):
    """The elements of equally shaped POVMs as one ``(Q, A, d, d)`` array."""
    return np.array([p.elements for p in povms], dtype=complex)


def _joint_tables(psi_m, m_arr, n_arr):
    """p[q1, q2, a1, a2] = <psi| M_{q1}^{a1} (x) N_{q2}^{a2} |psi> for stacked
    POVMs, with negative rounding clamped to 0; also returns each block's sum.

    Raises ValueError on an imaginary part above HERMITIAN_TOL or a block
    that does not sum to 1 within COMPLETENESS_TOL.
    """
    k = psi_m.conj().T @ m_arr @ psi_m
    p = np.einsum("xajl,ybjl->xyab", k, n_arr)
    bad = np.abs(p.imag) > HERMITIAN_TOL
    if bad.any():
        raise ValueError("joint probability has imaginary part "
                         f"{float(p.imag[bad][0])!r}")
    p = np.maximum(p.real, 0.0)
    totals = p.sum(axis=(2, 3))
    off = np.abs(totals - 1.0) > COMPLETENESS_TOL
    if off.any():
        raise ValueError(f"joint distribution sums to {float(totals[off][0])!r}")
    return p, totals


def joint_distribution(s, q1, q2):
    """p(a1, a2) = <psi| M_{q1}^{a1} (x) N_{q2}^{a2} |psi> as a nested tuple."""
    p, _ = _joint_tables(s.state_matrix(), povm_stack(s.povms1[q1:q1 + 1]),
                         povm_stack(s.povms2[q2:q2 + 1]))
    return tuple(tuple(row) for row in p[0, 0].tolist())


def to_bipartite_strategy(s, game):
    """Assemble the induced conditional table for every question pair.

    Each block is renormalized (its raw sum is 1 within 1e-9 already) so the
    result is a valid float-mode ``BipartiteStrategy``.
    """
    if len(s.povms1) != game.q1_count or len(s.povms2) != game.q2_count:
        raise DimensionError("strategy question counts do not match the game")
    if any(len(p) != game.a1_count for p in s.povms1) or \
            any(len(p) != game.a2_count for p in s.povms2):
        raise DimensionError("strategy answer counts do not match the game")
    p, totals = _joint_tables(s.state_matrix(), povm_stack(s.povms1),
                              povm_stack(s.povms2))
    return BipartiteStrategy(game.q1_count, game.q2_count, game.a1_count,
                             game.a2_count, p / totals[:, :, None, None], scalars.FLOAT)


def psd_sqrt(op, tol=PSD_TOL):
    """Positive square root; eigenvalues in [-tol, 0] are clamped to 0."""
    op = np.asarray(op, dtype=complex)
    if not is_hermitian(op):
        raise ValueError("psd_sqrt requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh((op + op.conj().T) / 2)
    if vals.min() < -tol:
        raise ValueError(f"matrix has eigenvalue {vals.min()} below -{tol}")
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return (root + root.conj().T) / 2


def pure_state_trace_distance(phi, psi):
    """sqrt(1 - |<phi|psi>|^2) for unit vectors."""
    phi = np.asarray(phi, dtype=complex).ravel()
    psi = np.asarray(psi, dtype=complex).ravel()
    if phi.shape != psi.shape:
        raise DimensionError("states have different dimensions")
    for v in (phi, psi):
        if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
            raise ValueError(f"state norm {np.linalg.norm(v)!r} is not 1 within {UNIT_TOL}")
    overlap = abs(np.vdot(phi, psi)) ** 2
    return float(np.sqrt(max(0.0, 1.0 - overlap)))


def symmetrize_second_prover(s, game):
    """Force identical answers on identical question pairs.

    Both provers gain one qubit of a shared EPR pair.  On a question pair
    (q, q) the new second prover runs the old measurement and uses his EPR
    qubit as a fair coin to decide which of his two answers to repeat, so
    the output satisfies N_{qq}^{a a'} = 0 for a != a' while the winning
    probability is unchanged.
    """
    meta = game.meta or {}
    pairs = meta.get("pairs")
    if pairs is None:
        raise DimensionError("game does not carry dummy-oracularization pair metadata")
    if len(pairs) != len(s.povms2):
        raise DimensionError("pair list does not match the strategy")
    alphabet = meta["alphabet"]

    eye2 = np.eye(2, dtype=complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    epr = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)

    new_state = np.kron(s.state_matrix(), epr).ravel()
    new_povms1 = tuple(
        Povm(tuple(np.kron(e, eye2) for e in p.elements), p.projective)
        for p in s.povms1)

    new_povms2 = []
    for pair, p in zip(pairs, s.povms2):
        u, v = pair
        if u != v:
            new_povms2.append(Povm(tuple(np.kron(e, eye2) for e in p.elements),
                                   p.projective))
            continue
        elems = []
        for aidx in range(len(p)):
            c1, c2 = decode_tuple(aidx, alphabet, 2)
            if c1 != c2:
                elems.append(np.zeros((p.dim * 2, p.dim * 2), dtype=complex))
                continue
            first = sum(p.elements[encode_tuple((c1, b), alphabet)]
                        for b in range(alphabet))
            second = sum(p.elements[encode_tuple((b, c1), alphabet)]
                         for b in range(alphabet))
            elems.append(np.kron(first, p0) + np.kron(second, p1))
        new_povms2.append(Povm(tuple(elems), p.projective))
    return QuantumStrategy(s.d1 * 2, s.d2 * 2, new_state, new_povms1,
                           tuple(new_povms2), s.meta)


# ---------------------------------------------------------------------------
# random strategies (seeded)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pvm(rng, dim, outcomes):
    """Random projective measurement: a Haar-ish basis split round-robin."""
    u = random_unitary(rng, dim)
    elems = [np.zeros((dim, dim), dtype=complex) for _ in range(outcomes)]
    for col in range(dim):
        v = u[:, col:col + 1]
        elems[col % outcomes] += v @ v.conj().T
    return Povm(tuple(elems), projective=True)


def random_strategy(rng, game, d1, d2):
    """Seeded random projective strategy shaped for ``game``."""
    povms1 = tuple(random_pvm(rng, d1, game.a1_count) for _ in range(game.q1_count))
    povms2 = tuple(random_pvm(rng, d2, game.a2_count) for _ in range(game.q2_count))
    return QuantumStrategy(d1, d2, random_state(rng, d1 * d2), povms1, povms2)


def deterministic_strategy(det, d1, d2, a1_count, a2_count):
    """Embed a deterministic strategy: the fixed answer's element is I."""
    povms1 = []
    for q1 in range(len(det.f1)):
        elems = [np.eye(d1, dtype=complex) if a == det.f1[q1]
                 else np.zeros((d1, d1), dtype=complex) for a in range(a1_count)]
        povms1.append(Povm(tuple(elems), projective=True))
    povms2 = []
    for q2 in range(len(det.f2)):
        elems = [np.eye(d2, dtype=complex) if a == det.f2[q2]
                 else np.zeros((d2, d2), dtype=complex) for a in range(a2_count)]
        povms2.append(Povm(tuple(elems), projective=True))
    state = np.zeros(d1 * d2, dtype=complex)
    state[0] = 1.0
    return QuantumStrategy(d1, d2, state, tuple(povms1), tuple(povms2))


# ---------------------------------------------------------------------------
# catalog


def catalog_magic_square():
    """The Magic Square game with its perfect two-EPR-pair strategy.

    Each prover holds two qubits of two shared EPR pairs.  The first prover
    measures the commuting observable triple of his constraint; the second
    measures the transposed single-cell observable, which is perfectly
    correlated with the first prover's entry through the maximally
    entangled state.
    """
    from .catalog import magic_square_cells, magic_square_game

    game = magic_square_game()
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    # 3x3 square of two-qubit observables: rows and columns are commuting
    # triples, every row multiplies to +I and every column to -I.  Outcome
    # bit b corresponds to eigenvalue (-1)^b.
    square = [
        [-np.kron(eye, sz), -np.kron(sz, eye), np.kron(sz, sz)],
        [np.kron(sx, eye), np.kron(eye, sx), np.kron(sx, sx)],
        [np.kron(sx, sz), np.kron(sz, sx), np.kron(sy, sy)],
    ]
    eye4 = np.eye(4, dtype=complex)

    def bits(a):
        return ((a >> 2) & 1, (a >> 1) & 1, a & 1)

    povms1 = []
    for c in range(6):
        want_parity = 0 if c < 3 else 1
        obs = [square[cell // 3][cell % 3] for cell in magic_square_cells(c)]
        elems = []
        for a in range(8):
            b = bits(a)
            if sum(b) % 2 == want_parity:
                m = eye4
                for k in range(3):
                    m = m @ (eye4 + (-1) ** b[k] * obs[k]) / 2
                elems.append(m)
            else:
                elems.append(np.zeros((4, 4), dtype=complex))
        povms1.append(Povm(tuple(elems), projective=True))

    povms2 = []
    for cell in range(9):
        o = square[cell // 3][cell % 3].T
        povms2.append(Povm(((eye4 + o) / 2, (eye4 - o) / 2), projective=True))

    state = np.eye(4, dtype=complex).ravel() / 2.0
    strategy = QuantumStrategy(4, 4, state, tuple(povms1), tuple(povms2))
    return game, strategy
