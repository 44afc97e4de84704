"""Metaplectic generators, covariance, and system transport."""

import numpy as np
import pytest

from gaborinv import symplectic
from gaborinv.errors import NotSymplectic, UnsupportedLength, UnsupportedTransport
from gaborinv.gabor import (
    FiniteGaborSystem,
    frame_bounds,
    gabor_matrix,
    orthonormal_range,
    periodized_gaussian,
    tf_shift,
)
from gaborinv.symplectic import (
    GeneralGaborSystem,
    covariance_residual,
    metaplectic_from_generators,
    rho_operator,
    transport_system,
)

J = [[0, -1], [1, 0]]
SHEAR1 = [[1, 0], [1, 1]]
SHEAR2 = [[1, 0], [3, 1]]
COMPOSITE = [[-2, -1], [1, 0]]  # J @ SHEAR2 with c = 2


def max_residual(op):
    L = op.L
    return max(
        covariance_residual(op, (t, m)) for t in range(L) for m in range(L)
    )


class TestConstruction:
    def test_identity_is_empty_product(self):
        op = metaplectic_from_generators([[1, 0], [0, 1]], 7)
        assert op.factors == ()
        assert np.allclose(op.unitary, np.eye(7))

    def test_dft_generator(self):
        op = metaplectic_from_generators(J, 5)
        assert op.factorization_trace() == [{"type": "dft"}]
        assert np.allclose(op.unitary.conj().T @ op.unitary, np.eye(5), atol=1e-12)

    def test_chirp_generator(self):
        op = metaplectic_from_generators(SHEAR1, 7)
        assert op.factorization_trace() == [{"type": "chirp", "c": 1}]
        assert np.allclose(np.abs(np.diag(op.unitary)), 1.0)

    def test_rejects_non_symplectic(self):
        with pytest.raises(NotSymplectic):
            metaplectic_from_generators([[2, 0], [0, 1]], 7)

    def test_rejects_determinant_lost_in_float_rounding(self):
        # det = 2**60 + 1 = 2 (mod 3); as a float it rounds to 2**60 = 1 (mod 3)
        with pytest.raises(NotSymplectic):
            metaplectic_from_generators([[2**30, 1], [-1, 2**30]], 3)

    def test_failed_factorization_is_a_typed_error(self, monkeypatch):
        # a wrong generator leaves a residue; the final check must raise, not assert
        monkeypatch.setitem(symplectic._REDUCTIONS, "U", (lambda u: [[1, 0], [0, 1]], "U"))
        with pytest.raises(NotSymplectic):
            metaplectic_from_generators([[2, 1], [1, 1]], 7)

    def test_even_length_rejected_for_shears(self):
        with pytest.raises(UnsupportedLength):
            metaplectic_from_generators(SHEAR1, 8)

    def test_even_length_dft_allowed(self):
        op = metaplectic_from_generators(J, 12)
        assert max(covariance_residual(op, (t, m)) for t in range(12) for m in range(12)) < 1e-10

    def test_every_unitary_is_unitary(self):
        for L in (5, 7, 9):
            for B in (J, SHEAR1, SHEAR2, COMPOSITE):
                U = metaplectic_from_generators(B, L).unitary
                assert np.linalg.norm(U.conj().T @ U - np.eye(L)) < 1e-10


class TestCovariance:
    def test_zero_shift_exact(self):
        op = metaplectic_from_generators(COMPOSITE, 9)
        assert covariance_residual(op, (0, 0)) < 1e-14

    @pytest.mark.parametrize("L", [5, 7, 9, 15])
    @pytest.mark.parametrize("B", [J, SHEAR1, SHEAR2, COMPOSITE])
    def test_exhaustive_grid(self, L, B):
        op = metaplectic_from_generators(B, L)
        assert max_residual(op) < 1e-10

    def test_random_sl2_words(self):
        rng = np.random.default_rng(7)
        for L in (5, 9):
            M = np.eye(2, dtype=np.int64)
            for _ in range(6):
                c = int(rng.integers(0, L))
                M = M @ np.array([[1, 0], [c, 1]], dtype=np.int64)
                M = M @ np.array(J, dtype=np.int64)
                M %= L
            op = metaplectic_from_generators(M, L)
            assert max_residual(op) < 1e-10

    def test_wrong_phase_convention_fails(self):
        # chirp missing the (L+1)/2 half-inverse: e^{i pi c n^2 / L}
        L = 7
        n = np.arange(L)
        bad = np.diag(np.exp(1j * np.pi * n * n / L))
        good = metaplectic_from_generators(SHEAR1, L)
        corrupted = type(good)(
            matrix=good.matrix, unitary=bad, L=L, factors=good.factors
        )
        assert max_residual(corrupted) > 1e-2

    def test_rho_halves_the_phase(self):
        L = 9
        R = rho_operator(L, 2, 3)
        P = tf_shift(np.eye(L, dtype=complex)[:, 0], 2, 3)
        assert np.allclose(R[:, 0], np.exp(1j * np.pi * 6 * (L + 1) / L) * P)


class TestTransport:
    def test_identity_transport(self):
        g = periodized_gaussian(15, np.pi)
        sys = FiniteGaborSystem(15, 3, 5, g)
        op = metaplectic_from_generators([[1, 0], [0, 1]], 15)
        out = transport_system(op, sys)
        assert isinstance(out, FiniteGaborSystem)
        assert (out.a, out.b) == (3, 5)
        assert np.allclose(out.window, g)

    def test_dft_swaps_steps(self):
        g = periodized_gaussian(15, np.pi)
        sys = FiniteGaborSystem(15, 3, 5, g)
        op = metaplectic_from_generators(J, 15)
        out = transport_system(op, sys)
        assert isinstance(out, FiniteGaborSystem)
        assert (out.a, out.b) == (5, 3)

    def test_span_maps_by_unitary(self):
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 3, 5, g)
        op = metaplectic_from_generators(COMPOSITE, L)
        out = transport_system(op, sys)
        Din = gabor_matrix(sys)
        span_in = orthonormal_range(Din)
        if isinstance(out, FiniteGaborSystem):
            Dout = gabor_matrix(out)
        else:
            Dout = out.system_matrix()
        span_out = orthonormal_range(Dout)
        mapped = op.unitary @ span_in.blocks[0][:, : span_in.rank]
        # principal angles via the projected Gram: equality of subspaces
        q_out = span_out.blocks[0][:, : span_out.rank]
        s = np.linalg.svd(q_out.conj().T @ mapped, compute_uv=False)
        assert span_out.rank == span_in.rank
        assert np.all(s > 1 - 1e-8)

    def test_shear_preserves_frame_bounds(self):
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 3, 5, g)
        op = metaplectic_from_generators(SHEAR2, L)
        out = transport_system(op, sys)
        fb_in = frame_bounds(sys)
        if isinstance(out, FiniteGaborSystem):
            fb_out = frame_bounds(out)
            assert fb_out.lower == pytest.approx(fb_in.lower, abs=1e-8)
            assert fb_out.upper == pytest.approx(fb_in.upper, abs=1e-8)
        else:
            G = out.system_matrix()
            lam = np.linalg.eigvalsh(G @ G.conj().T)
            assert lam[-1] == pytest.approx(fb_in.upper, abs=1e-8)

    def test_non_separable_image_returns_general_system(self):
        # shear of 5Z x 3Z mod 15: the slope 5 lands outside 3Z, so the
        # image subgroup is not a product set
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 5, 3, g)
        op = metaplectic_from_generators(SHEAR1, L)
        out = transport_system(op, sys)
        assert isinstance(out, GeneralGaborSystem)
        assert len(out.points) == 15

    def test_shear_fixing_the_lattice_stays_separable(self):
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 5, 5, g)
        op = metaplectic_from_generators(SHEAR1, L)
        out = transport_system(op, sys)
        assert isinstance(out, FiniteGaborSystem)
        assert (out.a, out.b) == (5, 5)

    def test_length_mismatch_rejected(self):
        g = periodized_gaussian(15, np.pi)
        sys = FiniteGaborSystem(15, 3, 5, g)
        op = metaplectic_from_generators(J, 5)
        with pytest.raises(UnsupportedTransport):
            transport_system(op, sys)
