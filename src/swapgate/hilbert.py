"""Tensor-product operator algebra over mixed qubit/qutrit sites.

Site 0 is the slowest-varying (leftmost) Kronecker factor, so a chain state
reads left to right, ``|q0 q1 ... qN-1>``.  All matrices are dense complex
numpy arrays; total dimensions stay at or below 36 in this package, so no
sparse machinery is used.  A chain's shape is a ``SiteDims``, a validated
tuple of per-site dimensions, and a density matrix is a plain
``OperatorMatrix``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# |0> is the ground state, so sigma_minus lowers |1> -> |0>.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

# Three-level (transmon-style) operators: lowering and a dephasing operator
# that restricts to sigma_z on the qubit subspace, 1 - 2*n for n = 0, 1, 2.
LOWER_3 = np.array(
    [[0.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2.0)], [0.0, 0.0, 0.0]], dtype=complex
)
DEPHASE_3 = np.diag([1.0, -1.0, -3.0]).astype(complex)


class HilbertError(ValueError):
    """Dimension or validity error in operator construction."""


def projector(dim: int, row: int, col: int) -> np.ndarray:
    """|row><col| on a single d-level site."""
    m = np.zeros((dim, dim), dtype=complex)
    m[row, col] = 1.0
    return m


class SiteDims(tuple):
    """Ordered per-site local dimensions of the chain (each 2 or 3), a tuple
    validated once.

    ``SiteDims(dims)`` returns a ``SiteDims`` argument unchanged and checks any
    other iterable: each value must equal 2 or 3 (``2.0`` and numpy integers
    do; ``2.5`` and ``"2"`` do not) and is then stored as an int.  A
    ``SiteDims`` equals and hashes as its plain tuple, so cache keys are
    shared with tuple keys; slicing gives a plain tuple, and messages print
    it as ``(2, 3, 3, 2)``.
    """

    def __new__(cls, dims: Iterable[int]) -> "SiteDims":
        if isinstance(dims, SiteDims):
            return dims
        dims = tuple(dims)
        if not dims:
            raise HilbertError("need at least one site")
        if any(d not in (2, 3) for d in dims):
            raise HilbertError(f"site dimensions must be 2 or 3, got {dims}")
        return super().__new__(cls, (int(d) for d in dims))

    @property
    def total_dim(self) -> int:
        return math.prod(self)


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense complex square matrix over the tensor-product space of ``dims``."""

    dims: SiteDims
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = SiteDims(self.dims)
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise HilbertError(f"operator must be square, got shape {arr.shape}")
        if arr.shape[0] != dims.total_dim:
            raise HilbertError(
                f"matrix size {arr.shape[0]} does not match dims {dims} "
                f"(total {dims.total_dim})"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", arr)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dims != other.dims:
            raise HilbertError(f"site dimensions differ: {self.dims} vs {other.dims}")
        return OperatorMatrix(self.dims, self.entries + other.entries)


def embed_operators(
    site_ops: Mapping[int, np.ndarray], dims: Sequence[int]
) -> OperatorMatrix:
    """Kronecker product with the given local operators and identities elsewhere.

    Every site index must lie on the chain, ``0 <= i < len(dims)``.
    """
    dims = SiteDims(dims)
    outside = [i for i in site_ops if not 0 <= i < len(dims)]
    if outside:
        raise HilbertError(f"site index {outside[0]} out of range")
    factors = []
    for i, d in enumerate(dims):
        local = np.asarray(site_ops.get(i, np.eye(d)), dtype=complex)
        if local.shape != (d, d):
            raise HilbertError(
                f"operator at site {i} has shape {local.shape}, expected ({d}, {d})"
            )
        factors.append(local)
    return OperatorMatrix(dims, functools.reduce(np.kron, factors))


def _embedded_sum(dims: Sequence[int], *products: dict[int, np.ndarray]) -> np.ndarray:
    """The sum of the embedded local products, as a read-only array."""
    embedded = (embed_operators(product, dims) for product in products)
    return functools.reduce(OperatorMatrix.__add__, embedded).entries


def embed_site_operator(
    local_op: np.ndarray, site_index: int, dims: Sequence[int]
) -> OperatorMatrix:
    """Embed a single-site operator: I x ... x local_op x ... x I."""
    return embed_operators({site_index: local_op}, dims)


def partial_trace(op: OperatorMatrix, keep_sites: Iterable[int]) -> OperatorMatrix:
    """Trace out all sites not in ``keep_sites``; kept sites keep their order.

    Preserves trace and Hermiticity, and is linear in the input, which the
    fidelity map relies on when evolved matrix units are reduced.
    """
    dims = op.dims
    keep = sorted(set(int(k) for k in keep_sites))
    if not keep:
        raise HilbertError("keep_sites must be nonempty")
    n = len(dims)
    if keep[0] < 0 or keep[-1] >= n:
        raise HilbertError(f"invalid site index in {keep}")

    # one contraction: site k's row axis is index k, its column axis index
    # n + k if kept, else k again, which traces it out
    cols = [n + k if k in keep else k for k in range(n)]
    arr = np.einsum(op.entries.reshape(dims + dims), [*range(n), *cols],
                    [*keep, *(n + k for k in keep)])
    kept = SiteDims(dims[k] for k in keep)
    return OperatorMatrix(kept, arr.reshape(kept.total_dim, kept.total_dim))


def excitation_numbers(dims: Sequence[int]) -> np.ndarray:
    """Total excitation of each product-basis state (a qutrit's |2> counts 2)."""
    return np.indices(SiteDims(dims)).sum(axis=0).ravel()


def sector_indices(dims: Sequence[int], n_max: int) -> np.ndarray:
    """Product-basis indices with total excitation <= n_max."""
    return np.where(excitation_numbers(dims) <= n_max)[0]
