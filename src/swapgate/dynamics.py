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

* With collapse operators the row-major Liouvillian ``L`` on those levels
  splits into the weakly connected components of its nonzero pattern (for
  an excitation-conserving chain whose loss only lowers excitation, the
  blocks of fixed coherence order N_row - N_col).  Each component the stack
  touches is exponentiated once for the first sample time and once for the
  grid spacing (once per interval on a non-uniform grid), and the stack
  advances by matrix products.
* Without them (a noiseless run) the generator is ``X -> Heff X + X Heff+``,
  so each operator evolves by conjugation, ``X -> U X U+`` with
  ``U = expm(Heff dt)``: one D x D exponential instead of the D^2 x D^2 one.

Hamiltonians are in rad/us and times in us.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .hilbert import (
    DEPHASE_3,
    LOWER_3,
    PAULI_Z,
    SIGMA_MINUS,
    DensityMatrix,
    HilbertError,
    OperatorMatrix,
    SiteDims,
    _as_site_dims,
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


@dataclass(frozen=True)
class NoiseModel:
    """Per-site dephasing and photon-loss channels at a common rate.

    ``gamma`` is in 1/us (a printed 0.01 MHz decay rate is 0.01 here, giving
    a 100 us lifetime).
    """

    gamma: float
    channels: frozenset[str] = frozenset(CHANNELS)

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        unknown = self.channels - set(CHANNELS)
        if unknown:
            raise ValueError(f"unknown noise channels {sorted(unknown)}")

    def collapse_operators(
        self, dims: SiteDims | Sequence[int]
    ) -> list[tuple[float, np.ndarray]]:
        """(rate, operator) pairs over the full chain, one per site and channel.

        The operators are shared, read-only arrays, embedded once per chain
        shape and channel.
        """
        dims = _as_site_dims(dims)
        if self.gamma == 0.0:
            return []
        return [
            (self.gamma, op)
            for channel in _CHANNEL_OPERATORS
            if channel in self.channels
            for op in _jump_operators(dims.dims, channel)
        ]



@functools.lru_cache(maxsize=None)
def _jump_operators(dims: tuple[int, ...], channel: str) -> tuple[np.ndarray, ...]:
    """The channel's jump operator embedded at each site, as read-only arrays."""
    op2, op3 = _CHANNEL_OPERATORS[channel]
    ops = []
    for j, d in enumerate(dims):
        op = embed_operators({j: op2 if d == 2 else op3}, dims).entries
        op.flags.writeable = False
        ops.append(op)
    return tuple(ops)


class _LindbladGenerator:
    """Right-hand side of the master equation for a stack of operators.

    Uses the effective-Hamiltonian form: the anticommutator halves are folded
    into a non-Hermitian Heff, diagonal (dephasing-type) jump terms are
    applied as one precomputed elementwise mask, and the remaining jumps as
    matrix products.  Propagation uses the matrix forms below; calling the
    generator evaluates the right-hand side directly (the tests integrate it
    as an independent oracle).
    """

    def __init__(
        self,
        hamiltonian: np.ndarray,
        collapse: Sequence[tuple[float, np.ndarray]],
        n_stack: int,
    ):
        self.dim = hamiltonian.shape[0]
        self.n_stack = n_stack
        heff = -1j * hamiltonian.astype(complex)
        mask = np.zeros((self.dim, self.dim), dtype=complex)
        jumps: list[tuple[float, np.ndarray]] = []
        for g, op in collapse:
            heff = heff - 0.5 * g * (op.conj().T @ op)
            diag = np.diagonal(op)
            if np.allclose(op, np.diag(diag)):
                mask += g * np.outer(diag, diag.conj())
            else:
                jumps.append((g, op))
        self.heff = heff
        self.mask = mask if np.any(mask) else None
        self.jumps = jumps

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        r = y.reshape(self.n_stack, self.dim, self.dim)
        heff = self.heff
        # flatten the stack into one wide matrix so BLAS sees a single product
        flat = r.reshape(self.n_stack * self.dim, self.dim)
        out = (flat @ heff.conj().T).reshape(r.shape)
        left = heff @ r.transpose(1, 0, 2).reshape(self.dim, -1)
        out += left.reshape(self.dim, self.n_stack, self.dim).transpose(1, 0, 2)
        if self.mask is not None:
            out += self.mask[None, :, :] * r
        for g, l_op in self.jumps:
            tmp = l_op @ r.transpose(1, 0, 2).reshape(self.dim, -1)
            tmp = tmp.reshape(self.dim, self.n_stack, self.dim).transpose(1, 0, 2)
            out += g * (tmp.reshape(-1, self.dim) @ l_op.conj().T).reshape(r.shape)
        return out.ravel()

    def liouvillian(self) -> np.ndarray:
        """Matrix of the generator on row-major vectorized operators.

        ``vec(A X B) = (A kron B^T) vec(X)``, so the generator is
        ``Heff x I + I x Heff* + sum_l g_l A_l x A_l*`` plus the diagonal
        dephasing mask.
        """
        eye = np.eye(self.dim)
        lv = np.kron(self.heff, eye) + np.kron(eye, self.heff.conj())
        if self.mask is not None:
            lv += np.diag(self.mask.ravel())
        for g, op in self.jumps:
            lv += g * np.kron(op, op.conj())
        return lv

    def restrict(self, keep: np.ndarray) -> None:
        """Drop every level outside ``keep``, a set the generator maps into itself."""
        sub = np.ix_(keep, keep)
        self.dim, self.heff = keep.size, self.heff[sub]
        self.mask = None if self.mask is None else self.mask[sub]
        self.jumps = [(g, op[sub]) for g, op in self.jumps]


def propagate(
    rho0: DensityMatrix,
    hamiltonian: OperatorMatrix,
    noise: NoiseModel | None,
    sample_times: Sequence[float],
) -> list[DensityMatrix]:
    """Evolve a state from t = 0 under ``hamiltonian`` and ``noise`` and
    sample it at ``sample_times``, nonnegative and strictly increasing.

    The input is validated, and every sample is checked for trace and
    Hermiticity preservation (1e-8) and positivity (-1e-7).
    """
    dims = hamiltonian.dims
    if rho0.dims.dims != dims.dims:
        raise HilbertError("state dimensions do not match the Hamiltonian")
    rho0.validate()
    collapse = noise.collapse_operators(dims) if noise else []
    out = evolve_stack_raw(hamiltonian.entries, collapse,
                           rho0.entries[None, :, :], sample_times)
    results = []
    for k in range(out.shape[0]):
        m = out[k, 0]
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-8:
            raise PropagationError(
                f"trace drifted to {tr:.10f} at t = {sample_times[k]:.3e}"
            )
        if np.max(np.abs(m - m.conj().T)) > 1e-8:
            raise PropagationError("Hermiticity lost beyond 1e-8")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if w.min() < -1e-7:
            raise PropagationError(f"negative population {w.min():.3e}")
        results.append(DensityMatrix(OperatorMatrix(dims, m)))
    return results


def evolve_stack_raw(
    hamiltonian: np.ndarray,
    collapse: Sequence[tuple[float, np.ndarray]],
    stack: np.ndarray,
    sample_times: Sequence[float],
    functionals: np.ndarray | None = None,
) -> np.ndarray:
    """Stacked evolution on raw arrays from t = 0: the one propagation engine.

    ``collapse`` carries explicit (rate, operator) pairs.  Only the reachable
    levels, and with jump terms only the Liouvillian components the stack
    touches, are propagated (module docstring).  Returns the evolved stack,
    shape (n_times, n_stack, D, D), exactly zero outside those; or, given
    ``functionals`` W of the stack's shape, the (n_times,) sums
    ``sum_j Tr(W_j X_j(t))``, contracted piece by piece without forming the
    full-space stack.  A non-finite generator or result raises
    ``PropagationError``.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        raise ValueError("no sample times requested")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("sample times must be nonnegative and strictly increasing")
    if not (np.isfinite(hamiltonian).all() and np.isfinite(stack).all()
            and all(np.isfinite(g * op).all() for g, op in collapse)):
        raise PropagationError("generator or initial operators are not finite")
    n, d = stack.shape[0], stack.shape[1]
    gen = _LindbladGenerator(hamiltonian, collapse, n)
    keep = _reachable_levels(gen, stack)
    gen.restrict(keep)
    x = stack[:, keep[:, None], keep[None, :]].astype(complex)
    full_index = (keep[:, None] * d + keep[None, :]).ravel()  # into vec(D x D)
    if gen.mask is None and not gen.jumps:  # X -> Heff X + X Heff+
        out = _evolve(gen.heff, x, times, lambda u, x: u @ x @ u.conj().T)
        pieces = [(full_index, out.reshape(times.size, n, -1))]
    else:
        lv, rows = gen.liouvillian(), x.reshape(n, -1)
        pieces = [(full_index[b], _evolve(lv[np.ix_(b, b)], rows[:, b], times,
                                          lambda p, rows: rows @ p.T))
                  for b in _touched_components(lv, rows)]
    if functionals is None:
        result = np.zeros((times.size, n, d * d), dtype=complex)
        for index, piece in pieces:
            result[:, :, index] = piece
        result = result.reshape(times.size, n, d, d)
    else:
        w = functionals.reshape(n, d * d)  # Tr(W X) pairs X[a, b] with W[b, a]
        result = sum((np.einsum("tje,je->t", piece, w[:, index % d * d + index // d])
                      for index, piece in pieces), np.zeros(times.size, complex))
    if not np.isfinite(result).all():
        raise PropagationError("propagation produced non-finite entries")
    return result


def _reachable_levels(gen: _LindbladGenerator, stack: np.ndarray) -> np.ndarray:
    """Sorted levels reached from the rows and columns the stack occupies,
    where level i feeds j if Heff[j, i] or a non-diagonal jump's [j, i] is
    nonzero (diagonal jumps, held in the mask, move no level)."""
    feeds = gen.heff != 0
    for _, op in gen.jumps:
        feeds |= op != 0
    occupied = stack != 0
    seed = occupied.any(axis=(0, 1)) | occupied.any(axis=(0, 2))
    return np.flatnonzero(_closure(feeds.T, seed))


def _touched_components(lv: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """Weakly connected components of ``lv != 0`` holding a nonzero of a row."""
    linked = (lv != 0) | (lv != 0).T
    untouched = ~np.any(rows != 0, axis=0)
    blocks = []
    while not untouched.all():
        seed = np.arange(untouched.size) == np.argmin(untouched)
        blocks.append(np.flatnonzero(_closure(linked, seed)))
        untouched[blocks[-1]] = True
    return blocks


def _closure(successors: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Smallest superset of the mask ``reach`` holding each successor of its
    members (j succeeds i where ``successors[i, j]``)."""
    while True:
        grown = reach | successors[reach].any(axis=0)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _evolve(generator: np.ndarray, x: np.ndarray, times: np.ndarray,
            apply) -> np.ndarray:
    """Sample ``apply(expm(generator * t), x)`` at ``times``, stepping.

    One exponential reaches the first sample and one more serves every step
    of a uniform grid; a non-uniform grid takes one per interval.
    """
    out = np.empty((times.size,) + x.shape, dtype=complex)
    if times[0] > 0.0:
        x = apply(expm(generator * times[0]), x)
    out[0] = x
    steps = np.diff(times)
    if steps.size == 0:
        return out
    dt = (times[-1] - times[0]) / steps.size
    grid = times[0] + dt * np.arange(times.size)
    step = None
    if np.max(np.abs(grid - times)) <= 1e-14 * times[-1]:
        step = expm(generator * dt)
    for k in range(1, times.size):
        out[k] = apply(expm(generator * steps[k - 1]) if step is None else step,
                       out[k - 1])
    return out


def __getattr__(name: str):
    # perfbench's tracer looks up two names nothing here uses: it counts RK45
    # evaluations by wrapping ``solve_ivp`` (imported lazily, so that the
    # package does not load scipy.integrate), and it wraps the stub below
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    if name == "propagate_superoperator":
        return _removed_propagate_superoperator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _removed_propagate_superoperator(*_args, **_kwargs):
    raise AttributeError("propagate_superoperator is folded into evolve_stack_raw")
