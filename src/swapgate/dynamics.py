"""Open-system time evolution: Schrodinger and Lindblad propagation.

The master equation

    drho/dt = -i [H, rho] + sum_l gamma_l (A_l rho A_l+ - 1/2 {A_l+ A_l, rho})

is solved exactly on stacks of operators.  Every generator the package ships
is static: the qubit chains, cross-talk variants and the five-site chain in
the interaction picture, the qutrit-control chain in the frame rotating at
the sideband gap times the number of control |2> levels
(``spin_model.build_qutrit_hamiltonian``), and the driven register in the
frame rotating at the drive detuning times the total excitation number
(``drive.rabi_prepare``).  Only the levels the stack reaches are propagated:
the closure of the rows and columns it occupies under the nonzero patterns
of Heff and of the jump operators, which every generator term maps into
itself.  The input then selects one of two branches:

* Without collapse operators, when the kept-level ``H = i Heff`` is Hermitian
  within ``HERMITIAN_RTOL`` (a noiseless run), each operator evolves by
  conjugation, ``X -> U X U+`` with ``U = exp(-i H t)``.  ``H = V E V+`` is
  diagonalised once and every sample is exact,
  ``X(t) = V (e^{-iEt} (V+ X V) e^{iEt}) V+``, on any grid: no stepping and
  no D^2 x D^2 generator.
* Otherwise the row-major Liouvillian ``L`` on those levels splits into the
  weakly connected components of its pattern on the graph of level pairs:
  (a, b) and (c, b) are linked where Heff[a, c] or Heff[c, a] is nonzero,
  (a, b) and (a, d) where Heff[b, d] or Heff[d, b] is, and (a, b) and (c, d)
  where a jump has nonzero [a, c] and [b, d].  For an excitation-conserving
  chain whose loss only lowers excitation these are the blocks of fixed
  coherence order N_row - N_col.  The components are found once per
  kept-level pattern of Heff and the jumps and cached, and each block is
  assembled straight from Heff and the jumps; ``L`` itself is never formed.
  Real rates make every generator term map X+ to its own adjoint,
  ``L(X+) = L(X)+``, so the component holding the pairs (b, a) mirrors the
  one holding (a, b) (Buca & Prosen, New J. Phys. 14, 073007, 2012): one
  block of each mirror pair is evolved, the partner's rows entering as
  adjoints and leaving conjugated.  A block is exponentiated once for the
  grid spacing, ``p = exp(B dt)``, which also reaches the first sample of a
  grid that starts at dt, once more for any other first sample (once per
  interval on a non-uniform grid), and acts, by matrix products, only on
  the stack rows that are nonzero in it; the rest stay exactly zero.  A
  noiseless generator that is not Hermitian (gain or loss written into H)
  takes this branch too.

The engine needs numpy alone: ``numpy.linalg.eigh`` diagonalises, and
``expm`` is scaling and squaring on the diagonal Pade approximants (Higham,
SIAM J. Matrix Anal. Appl. 26, 1179, 2005).  It takes the lowest degree of
3, 5, 7 and 9 whose theta_m bounds the argument's 1-norm, and otherwise
degree 13 after halving the argument s times to theta_13 = 5.37, then
squares s times.  It refuses a non-finite argument, one whose sixth power
leaves the float range, and a non-finite result with ``PropagationError``.

Instead of the evolved stack, the engine can return traces against grouped
functionals: ``G`` groups of operators W over the stack, group g giving
``sum_j Tr(W[g, j] X_j(t))``, each contracted block by block (in the
eigenbasis on the spectral branch).  On the Liouvillian branch the traces
on a uniform grid of T samples meet in the middle instead of stepping every
sample's state: the block's rows are stepped by ``p^m`` (m about sqrt(T)),
the functionals by ``p``, and one matrix product contracts the two, about
2 sqrt(T) products in place of T - 1.  Stacks that share a generator, such
as the fidelity stacks of several register preparations, are concatenated
and evolved once, each group reading its own rows.

Generators that share a stack, such as the drive chains the Rabi calibration
scans (``drive.calibrated_pi_pulse`` reads two traces off each), are
evolved together on a leading generator axis: a Hamiltonian of
shape (K, D, D) gives samples (T, K, n, D, D), or traces (T, K, G).  The
levels kept are the union of what the K reach, and the spectral branch
diagonalises all K in one stacked ``eigh`` and turns them by broadcast
products, so each generator's samples are those of its own call, bit for
bit, wherever the K reach the same levels.  Only noiseless Hermitian
generators are stacked: there is no batched Liouvillian.

``propagate`` evolves one state, an ``OperatorMatrix``, under one
Hamiltonian, checked on input and at every sample in one vectorised check.
Hamiltonians are in rad/us and times in us.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import (
    DEPHASE_3,
    LOWER_3,
    PAULI_Z,
    SIGMA_MINUS,
    HilbertError,
    OperatorMatrix,
    SiteDims,
    embed_operators,
)


class PropagationError(RuntimeError):
    """Propagation failure: a non-finite generator, input or result."""


# local jump operator of each channel on a qubit and on a qutrit site
_CHANNEL_OPERATORS = {
    "dephasing": (PAULI_Z, DEPHASE_3),
    "photon_loss": (SIGMA_MINUS, LOWER_3),
}
#: the noise channel names
CHANNELS = tuple(_CHANNEL_OPERATORS)

#: largest anti-Hermitian part, max|H - H+| relative to max|H|, of a
#: noiseless generator that is propagated spectrally as (H + H+) / 2: a few
#: ulps of rounding, far below any physical gain or loss
HERMITIAN_RTOL = 1e-14


@dataclass(frozen=True)
class NoiseModel:
    """Per-site dephasing and photon-loss channels at a common rate.

    ``gamma`` is in 1/us (a printed 0.01 MHz decay rate is 0.01 here, giving
    a 100 us lifetime).
    """

    gamma: float
    channels: frozenset[str] = frozenset(CHANNELS)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if isinstance(self.channels, str):
            raise ValueError("channels must be a collection of names, not a string")
        object.__setattr__(self, "channels", frozenset(self.channels))
        unknown = self.channels - set(CHANNELS)
        if unknown:
            raise ValueError(f"unknown noise channels {sorted(unknown)}")

    def collapse_operators(self, dims: Sequence[int]) -> list[tuple[float, np.ndarray]]:
        """(rate, operator) pairs over the full chain, one per site and channel.

        The operators are shared, read-only arrays, embedded once per chain
        shape and channel.
        """
        dims = SiteDims(dims)
        if self.gamma == 0.0:
            return []
        return [
            (self.gamma, op)
            for channel in _CHANNEL_OPERATORS
            if channel in self.channels
            for op in _jump_operators(dims, channel)
        ]


@functools.lru_cache(maxsize=None)
def _jump_operators(dims: SiteDims, channel: str) -> tuple[np.ndarray, ...]:
    """The channel's jump operator embedded at each site, as read-only arrays."""
    op2, op3 = _CHANNEL_OPERATORS[channel]
    return tuple(embed_operators({j: op2 if d == 2 else op3}, dims).entries
                 for j, d in enumerate(dims))


class _LindbladGenerator:
    """Generator of the master equation for a stack of operators.

    Uses the effective-Hamiltonian form: the anticommutator halves are folded
    into a non-Hermitian Heff, and every jump, diagonal (dephasing) or not,
    enters as its own term.  Propagation uses the matrix forms below.  A
    stack of Hamiltonians (K, D, D) gives a stack of Heff sharing the jumps;
    ``block`` and ``components`` need a single one.
    """

    def __init__(self, hamiltonian: np.ndarray,
                 collapse: Sequence[tuple[float, np.ndarray]]):
        self.dim = hamiltonian.shape[-1]
        heff = -1j * hamiltonian.astype(complex)
        for g, op in collapse:
            heff = heff - 0.5 * g * (op.conj().T @ op)
        self.heff = heff
        self.jumps = list(collapse)

    def block(self, pairs: np.ndarray) -> np.ndarray:
        """Matrix of the generator on the row-major vectorized entries
        ``pairs`` (entry X[a, b] has index ``a * dim + b``), a set it maps
        into itself.

        ``vec(A X B) = (A kron B^T) vec(X)``, so the entry of pairs (a, b)
        and (c, d) is ``Heff[a, c] d_bd + d_ac Heff*[b, d]``, plus
        ``g_l A_l[a, c] A_l*[b, d]`` per jump: the terms of the Kronecker
        form, summed in its order.
        """
        a, b = np.divmod(pairs, self.dim)
        # flat indices of the entries [a, c] and [b, d] of a dim x dim matrix
        left, right = a[:, None] * self.dim + a, b[:, None] * self.dim + b
        lv = self.heff.ravel()[left]
        lv[b[:, None] != b] = 0
        right_term = self.heff.conj().ravel()[right]
        right_term[a[:, None] != a] = 0
        lv += right_term
        for g, op in self.jumps:
            term = op.ravel()[left]
            term *= op.conj().ravel()[right]
            term *= g
            lv += term
        return lv

    def components(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """The generator's blocks on the level pairs, one per mirror pair
        (``_components``), for the current pattern of Heff and the jumps."""
        return _components(self.dim, (self.heff != 0).tobytes(),
                           tuple((op != 0).tobytes() for _, op in self.jumps))

    def restrict(self, keep: np.ndarray) -> None:
        """Drop every level outside ``keep``, a set the generator maps into itself."""
        sub = np.ix_(keep, keep)
        self.dim, self.heff = keep.size, self.heff[(...,) + sub]
        self.jumps = [(g, op[sub]) for g, op in self.jumps]


def propagate(
    rho0: OperatorMatrix,
    hamiltonian: OperatorMatrix,
    noise: NoiseModel | None,
    sample_times: Sequence[float],
) -> list[OperatorMatrix]:
    """Evolve a state from t = 0 under ``hamiltonian`` and ``noise`` and
    sample it at ``sample_times``, nonnegative and strictly increasing.

    The input must be a state within 1e-9 (``HilbertError``), and every
    sample is checked for trace and Hermiticity preservation within 1e-8
    (``PropagationError``, naming the sample's time); both must have no
    eigenvalue below -1e-7.
    """
    dims = hamiltonian.dims
    if rho0.dims != dims:
        raise HilbertError("state dimensions do not match the Hamiltonian")
    _check_states(rho0.entries[None], 1e-9, HilbertError, lambda _: "in the initial state")
    collapse = noise.collapse_operators(dims) if noise else []
    samples = evolve_stack_raw(hamiltonian.entries, collapse, rho0.entries[None, :, :],
                               sample_times)[:, 0]
    _check_states(samples, 1e-8, PropagationError,
                  lambda at: f"at t = {sample_times[at[0]]:.3e}")
    return [OperatorMatrix(dims, m) for m in samples]


def _check_states(m: np.ndarray, tol: float, error: type[Exception],
                  where: Callable[[tuple], str]) -> None:
    """Raise ``error`` unless every matrix of the stack ``m`` (..., D, D) has
    unit trace and is Hermitian within ``tol`` (NaN fails both) with no
    eigenvalue below -1e-7.  The message names the first failing matrix in
    C order, by ``where`` of its index, and its first failing check."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    trace_ok = np.abs(tr - 1.0) <= tol
    hermitian = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= tol
    ok = trace_ok & hermitian
    # eigenvalues only of matrices that passed, so NaN never reaches LAPACK
    passed = m if ok.all() else m[ok]
    passed = (passed + passed.conj().swapaxes(-1, -2)) / 2.0
    w_min = np.zeros(ok.shape)
    w_min[ok] = np.linalg.eigvalsh(passed).min(-1).ravel()
    bad = ~ok | (w_min < -1e-7)
    if not bad.any():
        return
    at = np.unravel_index(np.argmax(bad), bad.shape)
    if not trace_ok[at]:
        raise error(f"trace {tr[at]:.10f} is not 1 within {tol:g} {where(at)}")
    if not hermitian[at]:
        raise error(f"Hermiticity lost beyond {tol:g} {where(at)}")
    raise error(f"negative population {w_min[at]:.3e} {where(at)}")


def evolve_stack_raw(
    hamiltonian: np.ndarray,
    collapse: Sequence[tuple[float, np.ndarray]],
    stack: np.ndarray,
    sample_times: Sequence[float],
    functionals: np.ndarray | None = None,
) -> np.ndarray:
    """Stacked evolution on raw arrays from t = 0: the one propagation engine.

    ``collapse`` carries explicit (rate, operator) pairs with real rates.
    Only the reachable levels are propagated: a noiseless Hermitian generator
    from one eigendecomposition, any other block by block on the stack rows
    each block holds, one evolution per mirror pair of blocks (module
    docstring).  Returns the evolved stack, shape (n_times, n_stack, D, D),
    exactly zero outside those; or, given ``functionals`` W of shape
    (G, n_stack, D, D), the (n_times, G) sums ``sum_j Tr(W[g, j] X_j(t))``,
    contracted block by block (``_evolve``; in the eigenbasis on the
    spectral branch) without forming the full-space stack.  Each group g of
    functionals reads its own quantity off the one propagation, so operators
    that share a generator are evolved together.

    A ``hamiltonian`` of shape (K, D, D) is K generators evolving the one
    stack: the result gains a generator axis after time, (n_times, K,
    n_stack, D, D) or (n_times, K, G), each generator's samples those of its
    own call wherever the K reach the same levels.  More than one generator
    must be noiseless and Hermitian (one stacked ``eigh``); with collapse
    operators or a member that is not, they raise ``ValueError``.

    A stack of shape other than (n_stack, D, D), functionals of shape other
    than (G,) + that, a complex rate, or sample times that are empty,
    negative or not strictly increasing raise ``ValueError``; a non-finite
    sample time, generator or result raises ``PropagationError``.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        raise ValueError("no sample times requested")
    if not np.isfinite(times).all():
        raise PropagationError("sample times are not finite")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be nonnegative and strictly increasing")
    stacked = hamiltonian.ndim == 3
    hs = hamiltonian if stacked else hamiltonian[None]
    if hs.ndim != 3 or hs.shape[0] == 0 or stack.shape[1:] != hs.shape[1:]:
        raise ValueError(f"stack of shape {stack.shape} does not fit the "
                         f"{hamiltonian.shape} Hamiltonian")
    if functionals is not None and functionals.shape[1:] != stack.shape:
        raise ValueError(f"functionals of shape {functionals.shape} are not "
                         f"groups (G,) + {stack.shape} over the stack")
    if not (np.isfinite(hamiltonian).all() and np.isfinite(stack).all()
            and all(np.isfinite(g * op).all() for g, op in collapse)):
        raise PropagationError("generator or initial operators are not finite")
    if any(np.imag(g) != 0 for g, _ in collapse):
        raise ValueError("collapse rates must be real")
    if len(hs) > 1 and len(collapse):
        raise ValueError(f"{len(hs)} generators with collapse operators: "
                         "a generator stack is propagated noiseless only")
    n, d = stack.shape[0], stack.shape[1]
    gen = _LindbladGenerator(hs if len(hs) > 1 else hs[0], collapse)
    keep = _reachable_levels(gen, stack)
    gen.restrict(keep)
    sub = (slice(None), keep[:, None], keep[None, :])
    x = stack[sub].astype(complex)
    w = None if functionals is None else functionals[(slice(None),) + sub]
    # the kept-level Hamiltonians when nothing is lost, one per generator
    h = 1j * gen.heff.reshape(-1, keep.size, keep.size)
    h_adj = h.conj().swapaxes(1, 2)
    hermitian = (np.abs(h - h_adj).max(axis=(1, 2), initial=0.0)
                 <= HERMITIAN_RTOL * np.abs(h).max(axis=(1, 2), initial=0.0))
    if not gen.jumps and hermitian.all():
        # halves first: a sum of two entries near the float range would overflow
        result = _spectral(h / 2 + h_adj / 2, x, times, w)
    elif len(hs) > 1:
        raise ValueError(f"generator {int(np.argmin(hermitian))} is not Hermitian: "
                         "a generator stack is propagated spectrally only")
    else:
        rows = x.reshape(n, -1)
        width = rows.shape[1]
        if w is None:
            result = np.zeros((times.size, rows.size), dtype=complex)
        else:
            # Tr(W X) pairs X[a, b] with W[b, a]
            w = w.transpose(0, 1, 3, 2).reshape(w.shape[0], -1)
            result = np.zeros((times.size, w.shape[0]), dtype=complex)
        for block, mirror in gen.components():
            own = np.flatnonzero(rows[:, block].any(axis=1))
            adj = own[:0] if mirror is None else np.flatnonzero(rows[:, mirror].any(axis=1))
            if own.size + adj.size == 0:
                continue
            # flat stack entries: the block's own rows, then the mirror
            # block's (none for a self-mirror block), gathered as adjoints
            at = np.concatenate([own[:, None] * width + block,
                                 adj[:, None] * width + (block if mirror is None else mirror)])
            start = rows.ravel()[at]
            start[own.size:] = start[own.size:].conj()
            piece = _evolve(gen.block(block), start, times,
                            None if w is None else w[:, at], adj.size)
            if w is None:
                piece[:, own.size:] = piece[:, own.size:].conj()
                result[:, at] = piece
            else:
                result += piece
        result = result.reshape((times.size, 1) + (x.shape if w is None else (-1,)))
    if not np.isfinite(result).all():
        raise PropagationError("propagation produced non-finite entries")
    if w is None:
        full = np.zeros((times.size, len(hs), n, d, d), dtype=complex)
        full[(slice(None),) * 2 + sub] = result
        result = full
    return result if stacked else result[:, 0]


def _spectral(h: np.ndarray, x: np.ndarray, times: np.ndarray,
              w: np.ndarray | None) -> np.ndarray:
    """The stack ``x`` conjugated by ``exp(-i h_k t)`` at ``times`` for each
    of the Hermitian ``h_k = V_k diag(E_k) V_k+`` stacked in ``h`` (K, d, d),
    shape (T, K) + ``x.shape``, where ``X~ = V+ X V`` only turns,
    ``X~_ab e^{-i(E_a - E_b) t}``; or, given grouped functionals ``w``, the
    (T, K, G) traces ``sum_ab C_gab e^{-i(E_a - E_b) t}`` of each group g,
    ``C_gab = sum_j W~[g, j, b, a] X~_j[a, b]``.  One stacked ``eigh`` and
    broadcast products do the K at once, each as its own call would."""
    energies, vecs = np.linalg.eigh(h)
    adj = vecs.conj().swapaxes(1, 2)
    # an energy or phase E_a t beyond the float range turns NaN here, and
    # ``evolve_stack_raw`` refuses the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        turn = np.exp(-1j * (energies[:, None, :] * times[:, None]))  # e^{-i E_a t}, (K, T, d)
    x = adj[:, None] @ x @ vecs[:, None]
    if w is None:
        turn = turn.swapaxes(0, 1)
        x = turn[:, :, None, :, None] * x * turn.conj()[:, :, None, None, :]
        return vecs[:, None] @ x @ adj[:, None]
    c = np.einsum("kgjba,kjab->kgab", adj[:, None, None] @ w @ vecs[:, None, None], x)
    return ((turn[:, None] @ c) * turn.conj()[:, None]).sum(-1).transpose(2, 0, 1)


def _reachable_levels(gen: _LindbladGenerator, stack: np.ndarray) -> np.ndarray:
    """Sorted levels reached from the rows and columns the stack occupies,
    where level i feeds j if Heff[j, i] (of any generator of a stack) or a
    jump's [j, i] is nonzero."""
    feeds = (gen.heff != 0).reshape(-1, gen.dim, gen.dim).any(axis=0)
    for _, op in gen.jumps:
        feeds |= op != 0
    occupied = stack != 0
    seed = occupied.any(axis=(0, 1)) | occupied.any(axis=(0, 2))
    return np.flatnonzero(_closure(lambda reach: feeds @ reach, seed))


@functools.lru_cache(maxsize=64)
def _components(
    dim: int, heff_pattern: bytes, jump_patterns: tuple[bytes, ...]
) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
    """Weakly connected components of the Liouvillian's pattern on the level
    pairs (module docstring), from the nonzero patterns of Heff and of the
    jumps, as read-only (block, mirror) index arrays.

    ``block`` holds the row-major indices ``a * dim + b`` of one component,
    sorted, and ``mirror`` the transposed indices ``b * dim + a`` in the same
    order, which make up the mirror component; ``mirror`` is None for a
    self-mirror component (coherence order 0), and each mirror pair appears
    once.
    """
    heff = np.frombuffer(heff_pattern, dtype=bool).reshape(dim, dim)
    heff = heff | heff.T
    jumps = [np.frombuffer(p, dtype=bool).reshape(dim, dim) for p in jump_patterns]

    def linked(reach):
        out = heff @ reach | reach @ heff
        for op in jumps:
            out |= op @ reach @ op.T | op.T @ reach @ op
        return out

    transposed = np.arange(dim * dim).reshape(dim, dim).T
    free = np.ones((dim, dim), dtype=bool)
    found = []
    while free.any():
        # seeded from the last free pair: where the last level holds the
        # most excitations (every shipped chain), each evolved block has
        # coherence order N_row - N_col >= 0 and its mirror the negative
        seed = np.zeros_like(free)
        seed.flat[np.flatnonzero(free)[-1]] = True
        member = _closure(linked, seed)
        free &= ~(member | member.T)
        block = np.flatnonzero(member)
        mirror = None if np.array_equal(member, member.T) else transposed[member]
        for index in (block, mirror):
            if index is not None:
                index.flags.writeable = False
        found.append((block, mirror))
    return tuple(found)


def _closure(linked, reach: np.ndarray) -> np.ndarray:
    """Smallest superset of the mask ``reach`` that holds ``linked(reach)``,
    the mask of everything its members link to."""
    while True:
        grown = reach | linked(reach)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _evolve(generator: np.ndarray, rows: np.ndarray, times: np.ndarray,
            functionals: np.ndarray | None = None, n_adjoint: int = 0) -> np.ndarray:
    """Sample ``rows @ expm(generator * t).T`` at ``times``: the rows are
    the vectorised operators that occupy a Liouvillian block (for a mirror
    pair, those of both blocks, the mirror's as adjoints) and ``generator``
    is the block.  One exponential, ``p = expm(generator * dt)``, serves
    every step of a uniform grid and, when the grid starts at ``dt``, the
    first sample too; any other first sample takes one more, and a
    non-uniform grid one per interval.

    Given ``functionals`` F of shape (G, rows, nb), paired entry by entry
    with the operators the rows stand for (the last ``n_adjoint`` rows are
    those operators' adjoints), returns instead the (T, G) traces
    ``sum_{j,e} X_j(t)[e] F[g, j, e]`` without forming each sample's state:
    the baby-step/giant-step split (Paterson & Stockmeyer, SIAM J. Comput.
    2, 60, 1973) steps the functionals as well as the states.  With m the
    largest power of two not above sqrt(T), ``Q = p^m`` comes from log2 m
    squarings; the states ``U_a = x(t_0) (Q^T)^a`` for a < A = ceil(T / m)
    meet the functionals ``V_b = F p^b`` for b < m in one product,
    ``trace[a m + b] = sum_{j,e} U_a[j, e] V_b[g, j, e]``: (A - 1) + (m - 1)
    + log2 m block products against T - 1 for stepping every sample.  The
    adjoint rows are contracted against conj(F) and their sum conjugated.
    The states themselves, and the traces on a non-uniform grid, are
    stepped sample by sample (m = 1).
    """
    steps = np.diff(times)
    p = dt = None
    if steps.size:
        dt = (times[-1] - times[0]) / steps.size
        grid = times[0] + dt * np.arange(times.size)
        if np.max(np.abs(grid - times)) <= 1e-14 * times[-1]:
            p = expm(generator * dt)
    if times[0] > 0.0:
        # a grid that starts one step in reaches its first sample with p
        first = p if p is not None and times[0] == dt else expm(generator * times[0])
        rows = rows @ first.T
    m = 1
    if functionals is not None and p is not None:
        m = 1 << (math.isqrt(times.size).bit_length() - 1)
    giant = p
    for _ in range(m.bit_length() - 1):
        giant = giant @ giant
    states = np.empty((-(-times.size // m),) + rows.shape, dtype=complex)
    states[0] = rows
    for a in range(1, states.shape[0]):
        step = giant if p is not None else expm(generator * steps[a - 1])
        states[a] = states[a - 1] @ step.T
    if functionals is None:
        return states
    n_groups, n_own = functionals.shape[0], rows.shape[0] - n_adjoint
    baby = np.empty((m,) + functionals.shape, dtype=complex)
    baby[0, :, :n_own] = functionals[:, :n_own]
    baby[0, :, n_own:] = functionals[:, n_own:].conj()
    flat = baby.reshape(m, -1, rows.shape[1])  # a view: steps fill ``baby``
    for b in range(1, m):
        flat[b] = flat[b - 1] @ p

    def met(part: slice) -> np.ndarray:
        u = states[:, part].reshape(states.shape[0], -1)
        return u @ baby[:, :, part].reshape(m * n_groups, -1).T

    traces = met(slice(None, n_own))
    if n_adjoint:
        traces += met(slice(n_own, None)).conj()
    return traces.reshape(-1, n_groups)[:times.size]


#: (m, theta_m, b_0 ... b_m) of the diagonal Pade approximants r_m below
#: degree 13: r_m(A) is exp(A) to double precision while ||A||_1 <= theta_m
#: (Higham 2005, Table 2.3 and (2.11))
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068, (17643225600.0, 8821612800.0, 2075673600.0,
                            302702400.0, 30270240.0, 2162160.0, 110880.0,
                            3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179, 2005, Algorithm 2.3; the module docstring
    gives the degree choice): ``r_m(a / 2^s)`` squared s times, with
    ``r_m = (V - U)^-1 (V + U)`` and U and V the odd and even parts of the
    Pade numerator, built from the even powers of ``a``.  The degree-13
    branch forms a^2, a^4 and a^6 before scaling, as scipy does, so an
    argument whose powers overflow raises ``PropagationError``, as does a
    non-finite argument or result.
    """
    norm = np.abs(a).sum(axis=0).max(initial=0.0)
    ident = np.eye(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        a2, s = a @ a, 0
        for m, theta, b in _PADE:
            if norm <= theta:
                powers = [ident, a2]
                while len(powers) <= m // 2:
                    powers.append(powers[-1] @ a2)
                u = a @ sum(c * x for c, x in zip(b[1::2], powers))
                v = sum(c * x for c, x in zip(b[::2], powers))
                break
        else:
            a4 = a2 @ a2
            a6 = a4 @ a2
            if not np.isfinite(a6).all():
                raise PropagationError("propagation produced non-finite entries")
            s = max(0, math.ceil(math.log2(norm / _THETA_13)))
            a, a2, a4, a6 = a * 2.0**-s, a2 * 4.0**-s, a4 * 16.0**-s, a6 * 64.0**-s
            b = _PADE_13
            u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                     + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
            v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
                 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
        r = np.linalg.solve(v - u, v + u)
        for _ in range(s):
            r = r @ r
    if not np.isfinite(r).all():
        raise PropagationError("propagation produced non-finite entries")
    return r


def __getattr__(name: str):
    # perfbench's tracer looks up two names nothing here uses: it counts RK45
    # evaluations by wrapping ``solve_ivp`` (imported lazily: the package
    # itself loads no scipy), and it wraps the stub below
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    if name == "propagate_superoperator":
        return _removed_propagate_superoperator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _removed_propagate_superoperator(*_args, **_kwargs):
    raise AttributeError("propagate_superoperator is folded into evolve_stack_raw")
