"""Tests for the tensor-product operator algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import eig_hermitian, kron_embed, partial_trace_by_sites, pure_state
from swapgate.dynamics import _jump_operators
from swapgate.hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    HilbertError,
    OperatorMatrix,
    SiteDims,
    embed_operators,
    embed_site_operator,
    excitation_numbers,
    partial_trace,
    projector,
    sector_indices,
)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


# every chain shape of one to five sites over qubits and qutrits, 62 in all
ALL_SHAPES = [s for n in range(1, 6) for s in itertools.product((2, 3), repeat=n)]


class TestSiteDims:
    def test_valid(self):
        d = SiteDims((2, 3, 3, 2))
        assert d.total_dim == 36
        assert len(d) == 4

    def test_is_a_validated_tuple(self):
        """A SiteDims passes through unchanged, equals and hashes as its
        plain tuple, and slices to a plain tuple."""
        d = SiteDims((2, 3, 3, 2))
        assert SiteDims(d) is d
        assert SiteDims([2, 3]) == (2, 3)
        assert hash(SiteDims([2, 3])) == hash((2, 3))
        assert type(d[1:3]) is tuple and d[1:3] == (3, 3)
        assert repr(d) == "(2, 3, 3, 2)"

    def test_tuple_and_site_dims_share_a_cache_entry(self):
        first = _jump_operators((2, 3, 2), "dephasing")
        before = _jump_operators.cache_info()
        again = _jump_operators(SiteDims((2, 3, 2)), "dephasing")
        after = _jump_operators.cache_info()
        assert again is first
        assert (after.hits, after.currsize) == (before.hits + 1, before.currsize)

    @pytest.mark.parametrize("dims", [(), (4,), (2, 1), (2, 5, 2)])
    def test_invalid(self, dims):
        with pytest.raises(HilbertError):
            SiteDims(dims)

    @pytest.mark.parametrize("dims", [(2.5, 3.9), ["2", "3"]])
    def test_refuses_values_that_only_convert_to_2_or_3(self, dims):
        """A value is checked before it is converted: int() would truncate
        2.5 to 2 and parse "2"."""
        with pytest.raises(HilbertError, match="must be 2 or 3"):
            SiteDims(dims)

    def test_refuses_a_fractional_dimension_when_embedding(self):
        with pytest.raises(HilbertError, match="must be 2 or 3"):
            embed_operators({}, (2.9, 2))

    def test_integral_floats_and_numpy_ints_are_ints(self):
        for dims in [(2.0, 3.0), np.array([2, 3]), (np.int64(2), np.uint8(3))]:
            d = SiteDims(dims)
            assert d == (2, 3) and all(type(x) is int for x in d)


class TestEmbed:
    def test_sigma_z_at_first_site(self):
        op = embed_site_operator(PAULI_Z, 0, (2, 2))
        assert np.allclose(op.entries, np.diag([1, 1, -1, -1]))

    def test_identity_embedding_is_identity(self):
        op = embed_site_operator(np.eye(3), 1, (2, 3, 2))
        assert np.allclose(op.entries, np.eye(12))

    def test_ladder_embedding_nonzero_count(self):
        # oracle: raw Kronecker chain, counting unit entries directly
        dims = (2, 3, 3, 2)
        ladder = projector(3, 2, 1)
        op = embed_site_operator(ladder, 1, dims)
        oracle = kron_embed({1: ladder}, dims)
        assert np.array_equal(op.entries, oracle)
        assert op.entries.shape == (36, 36)
        nz = np.nonzero(op.entries)
        assert len(nz[0]) == 12  # identity factors contribute 2*3*2 unit entries
        assert np.allclose(op.entries[nz], 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(HilbertError):
            embed_site_operator(np.eye(3), 0, (2, 2))

    @pytest.mark.parametrize("site_ops", [
        {7: PAULI_X}, {-1: PAULI_X}, {2: PAULI_X}, {0: PAULI_X, 7: PAULI_X, -1: PAULI_X},
    ])
    def test_site_outside_the_chain_rejected(self, site_ops):
        """An operator off the chain is an error, not a silent identity."""
        with pytest.raises(HilbertError, match="out of range"):
            embed_operators(site_ops, (2, 2))
        with pytest.raises(HilbertError, match="out of range"):
            embed_site_operator(PAULI_X, min(site_ops), (2, 2))

    def test_embeddings_at_distinct_sites_commute(self):
        rng = np.random.default_rng(7)
        dims = (2, 3, 2)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            oa = embed_site_operator(a, 0, dims)
            ob = embed_site_operator(b, 1, dims)
            comm = oa.entries @ ob.entries - ob.entries @ oa.entries
            assert np.max(np.abs(comm)) <= 1e-12

    def test_product_embedding(self):
        dims = (2, 2, 2)
        combined = embed_operators({0: PAULI_X, 2: PAULI_Y}, dims)
        oracle = kron_embed({0: PAULI_X, 2: PAULI_Y}, dims)
        assert np.allclose(combined.entries, oracle)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(1)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        full = OperatorMatrix(SiteDims((2, 3)), np.kron(rho_a, rho_b))
        reduced = partial_trace(full, keep_sites=[0])
        assert np.allclose(reduced.entries, rho_a, atol=1e-12)

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
        rho = pure_state(bell, (2, 2))
        for keep in ([0], [1]):
            red = partial_trace(rho, keep)
            assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_random_four_site(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 16)
        dm = OperatorMatrix(SiteDims((2, 2, 2, 2)), rho)
        red = partial_trace(dm, keep_sites=[1, 2])
        assert abs(np.trace(red.entries) - 1.0) < 1e-12
        assert np.max(np.abs(red.entries - red.entries.conj().T)) < 1e-12

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 12)
        dm = OperatorMatrix(SiteDims((2, 3, 2)), rho)
        red = partial_trace(dm, keep_sites=[0, 1, 2])
        assert np.allclose(red.entries, rho)

    def test_linear_in_input(self):
        rng = np.random.default_rng(4)
        dims = SiteDims((2, 2, 3))
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        b = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        alpha, beta = 0.3 - 0.2j, 1.1 + 0.7j
        lhs = partial_trace(
            OperatorMatrix(dims, alpha * a + beta * b), keep_sites=[0, 2]
        ).entries
        rhs = alpha * partial_trace(OperatorMatrix(dims, a), [0, 2]).entries + \
            beta * partial_trace(OperatorMatrix(dims, b), [0, 2]).entries
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_empty_keep_rejected(self):
        rho = OperatorMatrix(SiteDims((2, 2)), np.eye(4) / 4)
        with pytest.raises(HilbertError):
            partial_trace(rho, keep_sites=[])
        with pytest.raises(HilbertError):
            partial_trace(rho, keep_sites=[5])

    def test_oracle_against_einsum(self):
        rng = np.random.default_rng(5)
        dims = SiteDims((2, 3, 2, 2))
        m = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
        got = partial_trace(OperatorMatrix(dims, m), keep_sites=[0, 3]).entries
        a = m.reshape(2, 3, 2, 2, 2, 3, 2, 2)
        want = np.einsum("aijbcijd->abcd", a).reshape(4, 4)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (2, 3, 3, 2), (2, 2, 2, 2, 2)])
    def test_matches_site_by_site_trace_on_every_keep_set(self, shape):
        rng = np.random.default_rng(6)
        dims = SiteDims(shape)
        d = dims.total_dim
        op = OperatorMatrix(dims, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for r in range(1, len(shape) + 1):
            for keep in itertools.combinations(range(len(shape)), r):
                got = partial_trace(op, keep)
                assert got.dims == tuple(shape[k] for k in keep)
                want = partial_trace_by_sites(op.entries, shape, keep)
                assert np.abs(got.entries - want).max() <= 1e-14


class TestEigHermitian:
    """The checked eigensolver the closed-form spectrum tests use as oracle."""

    def test_sigma_x(self):
        w, v = eig_hermitian(OperatorMatrix(SiteDims((2,)), PAULI_X))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(PAULI_X @ v, v @ np.diag(w))

    def test_diagonal_sorted(self):
        d = np.diag([3.0, -1.0, 2.0, 0.5])
        w, _ = eig_hermitian(OperatorMatrix(SiteDims((2, 2)), d))
        assert np.allclose(w, sorted([3.0, -1.0, 2.0, 0.5]))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(HilbertError):
            eig_hermitian(OperatorMatrix(SiteDims((2,)), m))


class TestOperatorMatrix:
    def test_shape_validation(self):
        with pytest.raises(HilbertError):
            OperatorMatrix(SiteDims((2, 2)), np.eye(3))

    def test_no_state_or_target_wrapper_is_exported(self):
        """A state is an OperatorMatrix and a target gate an array; the
        one-site embedding is ``hilbert``'s, not the package's."""
        import swapgate
        from swapgate import hilbert, metrics

        assert "embed_site_operator" not in swapgate.__all__
        assert not hasattr(swapgate, "embed_site_operator")
        for name in ("DensityMatrix", "TargetGate"):
            assert name not in swapgate.__all__
            assert not hasattr(hilbert, name) and not hasattr(metrics, name)
        for member in ("is_hermitian", "norm", "dim"):
            assert not hasattr(OperatorMatrix, member)


class TestExcitationSectors:
    @pytest.mark.parametrize("shape", ALL_SHAPES)
    def test_numbers_are_the_diagonal_of_the_kronecker_sum(self, shape):
        """The diagonal of sum_j I x ... x diag(0 .. d_j - 1) x ... x I."""
        kron_sum = sum(kron_embed({j: np.diag(np.arange(d))}, shape)
                       for j, d in enumerate(shape))
        got = excitation_numbers(shape)
        assert got.dtype == np.dtype(int)
        assert np.array_equal(got, np.diag(kron_sum).real.astype(int))

    def test_counts(self):
        n = excitation_numbers((2, 3, 3, 2))
        assert n[0] == 0
        assert n[-1] == 1 + 2 + 2 + 1
        assert len(sector_indices((2, 3, 3, 2), 2)) == 13

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_sector_monotone(self, n_max):
        idx = sector_indices((2, 3, 3, 2), n_max)
        assert np.all(excitation_numbers((2, 3, 3, 2))[idx] <= n_max)
