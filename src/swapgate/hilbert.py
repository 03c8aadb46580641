"""Tensor-product operator algebra over mixed qubit/qutrit sites.

Site 0 is the slowest-varying (leftmost) Kronecker factor, so a chain state
reads left to right, ``|q0 q1 ... qN-1>``.  All matrices are dense complex
numpy arrays; total dimensions stay at or below 36 in this package, so no
sparse machinery is used.  A density matrix is a plain ``OperatorMatrix``.
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
IDENTITY_2 = np.eye(2, dtype=complex)

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


@dataclass(frozen=True)
class SiteDims:
    """Ordered per-site local dimensions of the chain (each 2 or 3)."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise HilbertError("need at least one site")
        if any(d not in (2, 3) for d in dims):
            raise HilbertError(f"site dimensions must be 2 or 3, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def __len__(self) -> int:
        return len(self.dims)


def _as_site_dims(dims: SiteDims | Sequence[int]) -> SiteDims:
    return dims if isinstance(dims, SiteDims) else SiteDims(tuple(dims))


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense complex square matrix over the tensor-product space of ``dims``."""

    dims: SiteDims
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = _as_site_dims(self.dims)
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise HilbertError(f"operator must be square, got shape {arr.shape}")
        if arr.shape[0] != dims.total_dim:
            raise HilbertError(
                f"matrix size {arr.shape[0]} does not match dims {dims.dims} "
                f"(total {dims.total_dim})"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", arr)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dims.dims != other.dims.dims:
            raise HilbertError(
                f"site dimensions differ: {self.dims.dims} vs {other.dims.dims}"
            )
        return OperatorMatrix(self.dims, self.entries + other.entries)


def embed_operators(
    site_ops: Mapping[int, np.ndarray], dims: SiteDims | Sequence[int]
) -> OperatorMatrix:
    """Kronecker product with the given local operators and identities elsewhere.

    Every site index must lie on the chain, ``0 <= i < n_sites``.
    """
    dims = _as_site_dims(dims)
    outside = [i for i in site_ops if not 0 <= i < dims.n_sites]
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


def _embedded_sum(dims: SiteDims, *products: dict[int, np.ndarray]) -> np.ndarray:
    """The sum of the embedded local products, as a read-only array."""
    embedded = (embed_operators(product, dims) for product in products)
    return functools.reduce(OperatorMatrix.__add__, embedded).entries


def embed_site_operator(
    local_op: np.ndarray, site_index: int, dims: SiteDims | Sequence[int]
) -> OperatorMatrix:
    """Embed a single-site operator: I x ... x local_op x ... x I."""
    return embed_operators({site_index: local_op}, dims)


def partial_trace(op: OperatorMatrix, keep_sites: Iterable[int]) -> OperatorMatrix:
    """Trace out all sites not in ``keep_sites``; kept sites keep their order.

    Preserves trace and Hermiticity, and is linear in the input, which the
    fidelity map relies on when evolved Pauli-basis operators are reduced.
    """
    dims = op.dims
    keep = sorted(set(int(k) for k in keep_sites))
    if not keep:
        raise HilbertError("keep_sites must be nonempty")
    if keep[0] < 0 or keep[-1] >= dims.n_sites:
        raise HilbertError(f"invalid site index in {keep}")

    # one contraction: site k's row axis is index k, its column axis index
    # n + k if kept, else k again, which traces it out
    n = dims.n_sites
    cols = [n + k if k in keep else k for k in range(n)]
    arr = np.einsum(op.entries.reshape(dims.dims + dims.dims), [*range(n), *cols],
                    [*keep, *(n + k for k in keep)])
    d_red = int(np.prod([dims[k] for k in keep]))
    return OperatorMatrix(SiteDims(tuple(dims[k] for k in keep)),
                          arr.reshape(d_red, d_red))


def excitation_numbers(dims: SiteDims | Sequence[int]) -> np.ndarray:
    """Total excitation of each product-basis state (a qutrit's |2> counts 2)."""
    dims = _as_site_dims(dims)
    total = np.zeros(1, dtype=int)
    for d in dims:
        total = (total[:, None] + np.arange(d)[None, :]).ravel()
    return total


def sector_indices(dims: SiteDims | Sequence[int], n_max: int) -> np.ndarray:
    """Product-basis indices with total excitation <= n_max."""
    return np.where(excitation_numbers(dims) <= n_max)[0]
