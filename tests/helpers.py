"""Shared test helpers and the reference implementations the tests compare
the engine against, each stated once here:

- ``ROW6``, the couplings of table row 6 (2pi*MHz);
- ``pure_state`` and ``eig_hermitian``, a checked Hermitian eigensolver;
- ``PAULI_FACTORS`` and ``pauli_basis_2q``, the Pauli basis of the
  fidelity oracle;
- ``kron_embed``, local operators embedded by ``np.kron``;
- ``partial_trace_by_sites``, ``np.trace`` over one site at a time;
- ``textbook_liouvillian``, the master equation term by term;
- ``fidelity_stack`` and ``fbar_of``, the 16 initial operators of the
  average fidelity in Nielsen's Pauli form and its read-off from the
  evolved ones.  The engine scores on the matrix units |p><q| of the end
  qubits, so the Pauli form checks it in an independent basis;
- ``run_cli``, one ``swapgate`` command line run in this process.

The oracles work on plain arrays and call nothing in ``swapgate``.
"""

import contextlib
import io
from typing import NamedTuple

import numpy as np

from swapgate.cli import main
from swapgate.hilbert import HilbertError, OperatorMatrix

ROW6 = dict(j1x=40.9, j1z=40.9, j2x=-540.4, j2z=1007.1, delta=933.4)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
# the single-qubit factors X^k Z^l in (k, l) order
PAULI_FACTORS = [np.eye(2, dtype=complex), _Z, _X, _X @ _Z]


def pure_state(vec, dims):
    """The density matrix |v><v| of the normalised ``vec`` over ``dims``."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return OperatorMatrix(dims, np.outer(v, v.conj()))


def pauli_basis_2q():
    """The 16 operators X^k Z^l x X^m Z^n in lexicographic (k, l, m, n)
    order, the products taken by np.kron."""
    return [np.kron(a, b) for a in PAULI_FACTORS for b in PAULI_FACTORS]


def eig_hermitian(op):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator.

    Raises ``HilbertError`` if the input is not Hermitian to 1e-9
    (relative), and checks the reconstruction residual against
    1e-10 * ||A||.
    """
    m = op.entries if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > 1e-9 * scale:
        raise HilbertError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    residual = np.linalg.norm(m @ v - v @ np.diag(w))
    if residual > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise HilbertError(f"eigendecomposition residual {residual:.3e} too large")
    return w, v


def kron_embed(site_ops, dims):
    """Local operators at the given sites, identities elsewhere, by np.kron."""
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, np.asarray(site_ops.get(i, np.eye(d)), dtype=complex))
    return out


def partial_trace_by_sites(m, dims, keep):
    """Reference partial trace of the matrix ``m`` over sites of ``dims``:
    ``np.trace`` over one traced site at a time, from the highest index down
    so that the positions of the remaining axes stay valid."""
    dims = tuple(dims)
    arr = m.reshape(dims + dims)
    remaining = list(range(len(dims)))
    for site in sorted(set(remaining) - set(keep), reverse=True):
        pos = remaining.index(site)
        arr = np.trace(arr, axis1=pos, axis2=pos + len(remaining))
        remaining.pop(pos)
    d_red = int(np.prod([dims[k] for k in keep]))
    return arr.reshape(d_red, d_red)


def textbook_liouvillian(h, collapse):
    """Row-major Liouvillian of the master equation, term by term, from
    vec(A X B) = (A kron B^T) vec(X).  The Hamiltonian part is
    -i (H X - X H+), so a non-Hermitian H (gain or loss) is read as such."""
    eye = np.eye(h.shape[0])
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.conj()))
    for g, a in collapse:
        ada = a.conj().T @ a
        lv = lv + g * (np.kron(a, a.conj()) - 0.5 * np.kron(ada, eye)
                       - 0.5 * np.kron(eye, ada.T))
    return lv


def fidelity_stack(rho_c):
    """The fidelity's 16 initial operators: a Pauli factor on each end qubit
    around the control-register state ``rho_c``, of any register size."""
    return np.stack([np.kron(np.kron(a, rho_c), b)
                     for a in PAULI_FACTORS for b in PAULI_FACTORS])


def fbar_of(evolved, target, dims):
    """Average gate fidelity 0.2 + sum_j Tr(U P_j+ U+ rho_j) / 80 (Nielsen,
    Phys. Lett. A 303, 249, 2002) of the 16 evolved operators ``rho_j`` of
    ``fidelity_stack``, each reduced to the end sites of ``dims``."""
    ends = (0, len(dims) - 1)
    return 0.2 + sum(
        np.trace(target @ p.conj().T @ target.conj().T
                 @ partial_trace_by_sites(m, dims, ends)).real
        for p, m in zip(pauli_basis_2q(), evolved)) / 80.0


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """Standard output, then standard error."""
        return self.stdout + self.stderr


def run_cli(args):
    """Run ``swapgate <args>`` in this process: the exit code (0 when
    ``main`` returns), standard output and standard error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code
    return CliResult(exit_code, stdout.getvalue(), stderr.getvalue())
