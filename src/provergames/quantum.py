"""Finite-dimensional quantum strategies: states, POVMs, induced tables.

Strategies live in tensor-product form: the first prover's operators act on
the left factor, the second prover's on the right, so commutation between
the provers is structural.  Measurements are read-only stacked complex
arrays: a ``Povm`` is ``(A, d, d)``, and a ``QuantumStrategy`` holds one
``(Q, A, d, d)`` stack per prover; ``povms1``/``povms2`` give its rows
as ``Povm`` views, built once per strategy.  ``psd_sqrt`` and
``pure_state_trace_distance`` take leading stack axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import scalars
from .games import BipartiteStrategy, DimensionError

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-9
PROJECTIVE_TOL = 1e-9
UNIT_TOL = 1e-8


def _dagger(ops):
    """Conjugate transpose of each matrix of a ``(..., m, n)`` stack."""
    return ops.conj().swapaxes(-1, -2)


def _operators(data, ndim):
    """``data`` as a read-only complex array with ``ndim`` axes; one that is
    read-only already is kept, so a ``Povm`` over a stack row is a view."""
    ops = np.asarray(data, dtype=complex)
    if ops.flags.writeable:
        ops = ops.copy()
        ops.flags.writeable = False
    if ops.ndim != ndim:
        raise DimensionError(f"operator stack has shape {ops.shape}, "
                             f"expected {ndim} axes")
    return ops


@dataclass(frozen=True, eq=False)
class Povm:
    """Outcome-indexed measurement: a read-only ``(A, d, d)`` array of
    elements; ``projective`` asserts M^2 = M."""

    elements: np.ndarray
    projective: bool = False

    def __post_init__(self):
        object.__setattr__(self, "elements", _operators(self.elements, 3))

    @property
    def dim(self):
        return self.elements.shape[1]

    def __len__(self):
        return len(self.elements)


def _stack_problems(stack, projective):
    """``(question, message)`` for each fault of a ``(Q, A, d, d)`` stack of
    measurements, ordered by question, then element, then check; a
    question's completeness fault follows its elements' faults."""
    qn, an, d, cols = stack.shape
    checks = (f"has shape {stack.shape[2:]}, expected {(d, d)}",
              f"is not Hermitian within {HERMITIAN_TOL}",
              f"has eigenvalue below -{PSD_TOL}",
              f"is not projective within {PROJECTIVE_TOL}")
    # [q, i, check] for element i < A; [q, A, 0] marks an incomplete question
    flags = np.zeros((qn, an + 1, len(checks)), dtype=bool)
    if d != cols:  # no element has the right shape, so none is summed
        flags[:, :, 0] = True
    else:
        herm = np.abs(stack - _dagger(stack)).max(axis=(-2, -1)) <= HERMITIAN_TOL
        low = np.linalg.eigvalsh((stack + _dagger(stack)) / 2)[..., 0]
        flags[:, :an, 1] = ~herm
        flags[:, :an, 2] = herm & (low < -PSD_TOL)
        if projective:
            flags[:, :an, 3] = (np.abs(stack @ stack - stack).max(axis=(-2, -1))
                                > PROJECTIVE_TOL)
        off = np.abs(stack.sum(axis=1) - np.eye(d)).max(axis=(-2, -1))
        flags[:, an, 0] = off > COMPLETENESS_TOL
    return [(q, f"element {i} {checks[k]}" if i < an else
             f"elements do not sum to the identity within {COMPLETENESS_TOL}")
            for q, i, k in zip(*np.nonzero(flags))]


def validate_povm(povm):
    return [msg for _, msg in _stack_problems(povm.elements[None], povm.projective)]


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """Shared pure state plus both provers' measurements as operator stacks.

    ``M`` is a read-only ``(Q1, A1, d1, d1)`` array, ``M[q1, a1]`` the first
    prover's element for answer ``a1`` on question ``q1``; ``N`` is the
    second prover's ``(Q2, A2, d2, d2)`` stack.  ``projective`` asserts that
    every element is a projector.
    """

    d1: int
    d2: int
    state: np.ndarray  # unit vector in C^(d1*d2)
    M: np.ndarray
    N: np.ndarray
    projective: bool = False
    meta: dict | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=complex).ravel())
        object.__setattr__(self, "M", _operators(self.M, 4))
        object.__setattr__(self, "N", _operators(self.N, 4))

    def state_matrix(self):
        return self.state.reshape(self.d1, self.d2)

    @cached_property
    def povms1(self):
        """The first prover's measurements as ``Povm`` views over ``M``,
        built on first access."""
        return tuple(Povm(m, self.projective) for m in self.M)

    @cached_property
    def povms2(self):
        """The second prover's measurements as ``Povm`` views over ``N``,
        built on first access."""
        return tuple(Povm(n, self.projective) for n in self.N)


def validate_strategy(s):
    if len(s.state) != s.d1 * s.d2:
        return ["state dimension does not match d1*d2"]
    report = []
    norm = np.linalg.norm(s.state)
    if abs(norm - 1.0) > HERMITIAN_TOL:
        report.append(f"state norm {norm!r} is not 1 within {HERMITIAN_TOL}")
    for which, stack, d in (("prover 1", s.M, s.d1), ("prover 2", s.N, s.d2)):
        if stack.shape[2] != d:
            report += [f"{which} POVM {q} has dimension {stack.shape[2]}, expected {d}"
                       for q in range(len(stack))]
        else:
            report += [f"{which} question {q}: {msg}"
                       for q, msg in _stack_problems(stack, s.projective)]
    return report


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
    p, _ = _joint_tables(s.state_matrix(), s.M[q1:q1 + 1], s.N[q2:q2 + 1])
    return tuple(tuple(row) for row in p[0, 0].tolist())


def to_bipartite_strategy(s, game):
    """Assemble the induced conditional table for every question pair.

    Each block is renormalized (its raw sum is 1 within 1e-9 already) so the
    result is a valid float-mode ``BipartiteStrategy``.
    """
    if len(s.M) != game.q1_count or len(s.N) != game.q2_count:
        raise DimensionError("strategy question counts do not match the game")
    if s.M.shape[1] != game.a1_count or s.N.shape[1] != game.a2_count:
        raise DimensionError("strategy answer counts do not match the game")
    p, totals = _joint_tables(s.state_matrix(), s.M, s.N)
    return BipartiteStrategy(game.q1_count, game.q2_count, game.a1_count,
                             game.a2_count, p / totals[:, :, None, None], scalars.FLOAT)


def psd_sqrt(op, tol=PSD_TOL):
    """Positive square root of a matrix, or of each matrix of a
    ``(..., d, d)`` stack; eigenvalues in [-tol, 0] are clamped to 0."""
    op = np.asarray(op, dtype=complex)
    if np.max(np.abs(op - _dagger(op))) > HERMITIAN_TOL:
        raise ValueError("psd_sqrt requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh((op + _dagger(op)) / 2)
    if vals.min() < -tol:
        raise ValueError(f"matrix has eigenvalue {vals.min()} below -{tol}")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ _dagger(vecs)
    return (root + _dagger(root)) / 2


def pure_state_trace_distance(phi, psi):
    """sqrt(1 - |<phi|psi>|^2) for unit vectors along the last axis: a float
    for two vectors, an array of distances for two equally shaped stacks.

    Computed as sqrt((1 - |<phi|psi>|)(1 + |<phi|psi>|)) with
    1 - |<phi|psi>| = |phi - e^{i arg<psi|phi>} psi|^2 / 2, which does not
    cancel when the states (nearly) agree up to a phase.
    """
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.shape != psi.shape:
        raise DimensionError("states have different dimensions")
    for v in (phi, psi):
        norms = np.linalg.norm(v, axis=-1)
        off = np.abs(norms - 1.0) > UNIT_TOL
        if off.any():
            raise ValueError(f"state norm {norms[off][0]!r} is not 1 within {UNIT_TOL}")
    inner = np.einsum("...i,...i->...", psi.conj(), phi)  # <psi|phi>
    aligned = np.exp(1j * np.angle(inner))[..., None] * psi
    gap = np.sum(np.abs(phi - aligned) ** 2, axis=-1) / 2
    dist = np.sqrt(np.clip(gap * (1.0 + np.abs(inner)), 0.0, 1.0))
    return float(dist) if dist.ndim == 0 else dist


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
    if len(pairs) != len(s.N):
        raise DimensionError("pair list does not match the strategy")
    a = meta["alphabet"]

    # (1, 1, 2, 2) factors, so np.kron pairs each element of a stack with them
    eye2 = np.eye(2, dtype=complex)[None, None]
    p0 = np.diag([1.0, 0.0]).astype(complex)[None, None]
    p1 = np.diag([0.0, 1.0]).astype(complex)[None, None]
    epr = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex) / np.sqrt(2.0)

    new_state = np.kron(s.state_matrix(), epr).ravel()
    # on an equal pair, answer (c, c) repeats the old answers (c, *) on coin
    # 0 and (*, c) on coin 1, and answers (c, c') with c != c' never occur
    n = s.N.reshape((len(pairs), a, a) + s.N.shape[2:])
    merged = np.kron(n.sum(axis=2), p0) + np.kron(n.sum(axis=1), p1)  # [pair, c]
    merged = np.eye(a)[:, :, None, None] * merged[:, :, None]  # [pair, c, c']
    pairs = np.array(pairs)
    new_n = np.where((pairs[:, 0] == pairs[:, 1])[:, None, None, None],
                     merged.reshape(s.N.shape[:2] + merged.shape[3:]),
                     np.kron(s.N, eye2))
    return QuantumStrategy(s.d1 * 2, s.d2 * 2, new_state, np.kron(s.M, eye2), new_n,
                           s.projective, s.meta)


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
    cols = random_unitary(rng, dim).T[:, :, None]
    elems = np.zeros((outcomes, dim, dim), dtype=complex)
    np.add.at(elems, np.arange(dim) % outcomes, cols @ _dagger(cols))
    return Povm(elems, projective=True)


def random_strategy(rng, game, d1, d2):
    """Seeded random projective strategy shaped for ``game``."""
    m = [random_pvm(rng, d1, game.a1_count).elements for _ in range(game.q1_count)]
    n = [random_pvm(rng, d2, game.a2_count).elements for _ in range(game.q2_count)]
    return QuantumStrategy(d1, d2, random_state(rng, d1 * d2), m, n, projective=True)


def deterministic_strategy(det, d1, d2, a1_count, a2_count):
    """Embed a deterministic strategy: the fixed answer's element is I."""
    m = np.zeros((len(det.f1), a1_count, d1, d1), dtype=complex)
    m[np.arange(len(det.f1)), np.array(det.f1, dtype=int)] = np.eye(d1)
    n = np.zeros((len(det.f2), a2_count, d2, d2), dtype=complex)
    n[np.arange(len(det.f2)), np.array(det.f2, dtype=int)] = np.eye(d2)
    state = np.zeros(d1 * d2, dtype=complex)
    state[0] = 1.0
    return QuantumStrategy(d1, d2, state, m, n, projective=True)


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
    from .indexing import digit_table

    game = magic_square_game()
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)

    # 3x3 square of two-qubit observables: rows and columns are commuting
    # triples, every row multiplies to +I and every column to -I.  Outcome
    # bit b corresponds to eigenvalue (-1)^b.
    square = np.array([
        [-np.kron(eye, sz), -np.kron(sz, eye), np.kron(sz, sz)],
        [np.kron(sx, eye), np.kron(eye, sx), np.kron(sx, sx)],
        [np.kron(sx, sz), np.kron(sz, sx), np.kron(sy, sy)],
    ]).reshape(9, 4, 4)
    eye4 = np.eye(4, dtype=complex)

    # constraint c (rows 0-2, then columns) answers three bits of parity 0
    # for a row and 1 for a column; the element of bits b is the product of
    # the three cells' eigenprojectors (I + (-1)^b_k O_k) / 2
    bits = digit_table(2, 3)
    obs = square[[magic_square_cells(c) for c in range(6)]]  # (6, 3, 4, 4)
    f = (eye4 + (1 - 2 * bits)[:, :, None, None] * obs[:, None]) / 2  # [c, a, k]
    parity_ok = bits.sum(axis=1) % 2 == (np.arange(6) >= 3)[:, None]
    m = np.where(parity_ok[:, :, None, None], f[:, :, 0] @ f[:, :, 1] @ f[:, :, 2], 0)
    n = (eye4 + np.array([1, -1])[:, None, None] * square.swapaxes(1, 2)[:, None]) / 2
    state = np.eye(4, dtype=complex).ravel() / 2.0
    return game, QuantumStrategy(4, 4, state, m, n, projective=True)
