"""Shared test helpers: pure states and an independent Liouvillian oracle."""

import numpy as np

from swapgate.hilbert import OperatorMatrix


def pure_state(vec, dims):
    """The density matrix |v><v| of the normalised ``vec`` over ``dims``."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return OperatorMatrix(dims, np.outer(v, v.conj()))


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
