"""Shared test helpers: pure states, the two-qubit Pauli basis, a checked
Hermitian eigensolver and an independent Liouvillian oracle."""

import numpy as np

from swapgate.hilbert import HilbertError, OperatorMatrix


def pure_state(vec, dims):
    """The density matrix |v><v| of the normalised ``vec`` over ``dims``."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return OperatorMatrix(dims, np.outer(v, v.conj()))


def pauli_basis_2q():
    """The 16 operators X^k Z^l x X^m Z^n in lexicographic (k, l, m, n)
    order, each factor written out and the products taken by np.kron."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    factors = [np.eye(2), z, x, x @ z]
    return [np.kron(a, b) for a in factors for b in factors]


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
