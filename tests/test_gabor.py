"""Finite Gabor model: shifts, frame operators, duals, Walnut/Janssen forms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborinv.errors import InvalidLattice, InvalidParameter, ZeroWindow
from gaborinv.gabor import (
    FiniteGaborSystem,
    SubspaceBasis,
    analyze_system,
    canonical_dual,
    cross_frame_operator,
    frame_bounds,
    frame_operator_direct,
    frame_operator_walnut,
    gabor_matrix,
    is_hermitian,
    janssen_representation,
    periodized_gaussian,
    shift_operator,
    support_space,
    tf_shift,
    tf_shifts,
)

RNG = np.random.default_rng(90125)


def delta(L, k=0):
    d = np.zeros(L, dtype=complex)
    d[k] = 1.0
    return d


def random_signal(L):
    return RNG.normal(size=L) + 1j * RNG.normal(size=L)


class TestTfShift:
    def test_identity(self):
        f = random_signal(10)
        assert np.allclose(tf_shift(f, 0, 0), f)

    def test_pure_shift_of_delta(self):
        assert np.allclose(tf_shift(delta(8), 3, 0), delta(8, 3))

    def test_unitary(self):
        f = random_signal(12)
        for t in range(0, 12, 5):
            for m in range(0, 12, 5):
                assert np.linalg.norm(tf_shift(f, t, m)) == pytest.approx(
                    np.linalg.norm(f), abs=1e-12
                )

    def test_commutation_phase(self):
        # T_t M_m = e^{-2 pi i t m / L} M_m T_t
        L = 12
        f = random_signal(L)
        for t in range(4):
            for m in range(4):
                lhs = tf_shift(f, t, m)
                rhs = np.exp(-2j * np.pi * t * m / L) * tf_shift(tf_shift(f, t, 0), 0, m)
                assert np.allclose(lhs, rhs, atol=1e-12)

    def test_commutation_as_matrices(self):
        L = 12
        for t, m in [(1, 1), (3, 5), (7, 2)]:
            T = shift_operator(L, t, 0)
            M = shift_operator(L, 0, m)
            assert (
                np.linalg.norm(T @ M - np.exp(-2j * np.pi * t * m / L) * M @ T) < 1e-12
            )

    def test_matrix_matches_vector_action(self):
        L = 9
        f = random_signal(L)
        assert np.allclose(shift_operator(L, 4, 7) @ f, tf_shift(f, 4, 7))

    @pytest.mark.parametrize(
        "t, m",
        [
            ([0, 3, -5, 12, 29, -13], [7, -2, 0, 15, -25, 12]),  # negative and >= L
            (5, [0, 1, -7, 30]),  # a scalar t broadcast against an array m
        ],
    )
    def test_tf_shifts_columns_match_tf_shift(self, t, m):
        L = 12
        f = random_signal(L)
        cols = tf_shifts(f, t, m)
        t, m = np.broadcast_arrays(t, m)
        assert cols.shape == (L, t.size)
        for i, (ti, mi) in enumerate(zip(t, m)):
            assert np.linalg.norm(cols[:, i] - tf_shift(f, ti, mi)) <= 1e-13 * np.linalg.norm(f)


class TestGaborMatrix:
    def test_single_column(self):
        sys = FiniteGaborSystem(8, 8, 8, delta(8))
        D = gabor_matrix(sys)
        assert D.shape == (8, 1)
        assert np.allclose(D[:, 0], delta(8))

    def test_enumerated_small_case(self):
        L = 4
        sys = FiniteGaborSystem(L, 2, 2, delta(L))
        D = gabor_matrix(sys)
        assert D.shape == (4, 4)
        # columns (k fastest): pi(0,0), pi(2,0), pi(0,2), pi(2,2) applied to delta_0
        assert np.allclose(D[:, 0], delta(L, 0))
        assert np.allclose(D[:, 1], delta(L, 2))
        assert np.allclose(D[:, 2], tf_shift(delta(L), 0, 2))
        assert np.allclose(D[:, 3], tf_shift(delta(L), 2, 2))

    def test_column_norms_equal_window_norm(self):
        g = random_signal(12)
        D = gabor_matrix(FiniteGaborSystem(12, 3, 4, g))
        assert np.allclose(np.linalg.norm(D, axis=0), np.linalg.norm(g))

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidLattice):
            FiniteGaborSystem(12, 5, 4, random_signal(12))

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_window_rejected(self, entry):
        # an inf entry stalled the SVD in analyze_system; a nan one failed to converge
        w = np.full(12, 0.1)
        w[3] = entry
        with pytest.raises(InvalidParameter, match="window entries must be finite"):
            FiniteGaborSystem(12, 4, 4, w)

    def test_window_is_a_read_only_copy(self):
        # np.asarray kept a complex caller array by reference: w[:] = 0 zeroed the system
        w = np.exp(-np.arange(8.0) ** 2).astype(complex)
        sys = FiniteGaborSystem(8, 2, 2, w)
        w[:] = 0
        assert np.array_equal(sys.window, np.exp(-np.arange(8.0) ** 2))
        analyze_system(sys)  # ZeroWindow when the window was aliased
        with pytest.raises(ValueError):
            sys.window[0] = 1


class TestFrameOperator:
    def test_orthonormal_shift_basis(self):
        sys = FiniteGaborSystem(8, 1, 8, delta(8))
        S = frame_operator_direct(sys)
        assert np.allclose(S, np.eye(8), atol=1e-12)

    def test_full_lattice_is_tight(self):
        # all L^2 shifts: S = L ||g||^2 I, the tightness oracle
        g = random_signal(10)
        sys = FiniteGaborSystem(10, 1, 1, g)
        S = frame_operator_direct(sys)
        scalar = 10 * np.linalg.norm(g) ** 2
        assert np.linalg.norm(S - scalar * np.eye(10)) / scalar < 1e-12

    def test_positive_semidefinite_and_hermitian(self):
        g = random_signal(12)
        S = frame_operator_direct(FiniteGaborSystem(12, 3, 4, g))
        assert is_hermitian(S)
        assert np.linalg.eigvalsh(S).min() > -1e-12


class TestWalnut:
    def test_matches_direct_on_reference_system(self):
        g = periodized_gaussian(144, np.pi)
        sys = FiniteGaborSystem(144, 12, 8, g)
        S_direct = frame_operator_direct(sys)
        S_walnut, coeffs = frame_operator_walnut(sys)
        rel = np.linalg.norm(S_walnut - S_direct) / np.linalg.norm(S_direct)
        assert rel < 1e-10
        assert coeffs.scale == pytest.approx(144 / 8)

    def test_matches_direct_random_window(self):
        g = random_signal(24)
        sys = FiniteGaborSystem(24, 4, 6, g)
        S_direct = frame_operator_direct(sys)
        S_walnut, _ = frame_operator_walnut(sys)
        assert np.linalg.norm(S_walnut - S_direct) / np.linalg.norm(S_direct) < 1e-12

    def test_g0_real_nonnegative_periodic(self):
        g = periodized_gaussian(48, 2.0)
        sys = FiniteGaborSystem(48, 6, 4, g)
        _, coeffs = frame_operator_walnut(sys)
        h = coeffs.G[0]
        assert np.allclose(h.imag, 0, atol=1e-14)
        assert h.real.min() >= 0
        assert np.allclose(h, np.roll(h, 6), atol=1e-12)

    def test_g0_is_operator_diagonal(self):
        g = random_signal(24)
        sys = FiniteGaborSystem(24, 4, 6, g)
        S, coeffs = frame_operator_walnut(sys)
        assert np.allclose(np.diag(S), coeffs.scale * coeffs.G[0], atol=1e-10)

    def test_single_shift_system(self):
        g = random_signal(8)
        sys = FiniteGaborSystem(8, 8, 8, g)
        S, coeffs = frame_operator_walnut(sys)
        assert np.allclose(S, np.outer(g, g.conj()), atol=1e-12)
        assert np.allclose(coeffs.G[0], np.abs(g) ** 2, atol=1e-13)


class TestCanonicalDual:
    def test_orthonormal_system_fixed_point(self):
        sys = FiniteGaborSystem(8, 1, 8, delta(8))
        dual = canonical_dual(sys)
        assert np.allclose(dual.gamma, delta(8), atol=1e-12)

    def test_tight_full_lattice_scalar(self):
        g = random_signal(10)
        sys = FiniteGaborSystem(10, 1, 1, g)
        dual = canonical_dual(sys)
        scalar = 10 * np.linalg.norm(g) ** 2
        assert np.allclose(dual.gamma, g / scalar, atol=1e-12)

    def test_biorthogonality_riesz_instance(self):
        g = periodized_gaussian(120, np.pi)
        sys = FiniteGaborSystem(120, 12, 12, g)
        dual = canonical_dual(sys)
        D = gabor_matrix(sys)
        ips = D.conj().T @ dual.gamma  # <gamma, pi(lambda) g>
        assert abs(ips[0] - 1.0) < 1e-8
        assert np.max(np.abs(ips[1:])) < 1e-8

    def test_reconstruction_on_range(self):
        g = periodized_gaussian(60, np.pi)
        sys = FiniteGaborSystem(60, 6, 10, g)
        S = frame_operator_direct(sys)
        dual = canonical_dual(sys)
        assert np.linalg.norm(S @ dual.gamma - g) < 1e-8

    def test_zero_window_rejected(self):
        sys = FiniteGaborSystem(8, 4, 4, np.zeros(8))
        with pytest.raises(ZeroWindow):
            canonical_dual(sys)

    def test_overflowing_spectrum_rejected(self):
        # (L/b) s^2 overflowed to inf, every eigenvalue failed the cut: IndexError on kept[0]
        w = np.full(12, 2e199)
        w[0] = 1e200
        with pytest.raises(InvalidParameter, match="frame operator overflows"):
            analyze_system(FiniteGaborSystem(12, 4, 4, w))


class TestFrameBounds:
    def test_orthonormal_case(self):
        fb = frame_bounds(FiniteGaborSystem(8, 1, 8, delta(8)))
        assert fb.lower == pytest.approx(1.0)
        assert fb.upper == pytest.approx(1.0)
        assert fb.is_riesz_sequence

    def test_full_lattice_not_riesz(self):
        fb = frame_bounds(FiniteGaborSystem(8, 1, 1, random_signal(8)))
        assert not fb.is_riesz_sequence

    def test_undersampled_gaussian_riesz(self):
        g = periodized_gaussian(120, np.pi)
        fb = frame_bounds(FiniteGaborSystem(120, 12, 12, g))
        assert fb.is_riesz_sequence
        assert fb.rank == 100


@st.composite
def fibred_systems(draw):
    """(L, a, b) with a*b below, equal to or above L, and one of three windows:
    random, a shifted Gaussian (spread spectrum) or random on a short support
    (rank-deficient blocks)."""
    L = draw(st.integers(4, 72))
    relation = draw(st.sampled_from((-1, 0, 1)))
    divs = [d for d in range(1, L + 1) if L % d == 0]
    pairs = [(a, b) for a in divs for b in divs if np.sign(a * b - L) == relation]
    a, b = draw(st.sampled_from(pairs))
    kind = draw(st.sampled_from(("random", "gaussian", "short")))
    return FiniteGaborSystem(L, a, b, fibre_window(L, kind, draw(st.integers(0, 2**32 - 1))))


def fibre_window(L, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return tf_shift(periodized_gaussian(L, np.pi), *rng.integers(0, L, 2))
    g = rng.normal(size=L) + 1j * rng.normal(size=L)
    if kind == "short":
        g[rng.integers(1, L) :] = 0
    return g


@settings(max_examples=150, deadline=None)
@given(fibred_systems())
@example(FiniteGaborSystem(72, 12, 4, fibre_window(72, "random", 1)))  # a*b < L, gcd(a, L/b) = 6
@example(FiniteGaborSystem(72, 12, 6, fibre_window(72, "gaussian", 2)))  # a*b = L, gcd 12
@example(FiniteGaborSystem(72, 12, 12, fibre_window(72, "short", 3)))  # a*b > L, gcd 6
def test_fibred_analysis_matches_dense_eigh(sys):
    """Walnut-block analysis against eigh of the dense frame operator."""
    S = frame_operator_direct(sys)
    S_walnut, coeffs = frame_operator_walnut(sys)
    np.testing.assert_allclose(S_walnut, S, rtol=0, atol=1e-13 * np.abs(S).max())
    n, P = np.arange(sys.L), sys.n_freq
    G = S[n, (n - np.arange(sys.b)[:, None] * P) % sys.L] / P  # S[n, n - q L/b] = (L/b) G_q[n]
    np.testing.assert_allclose(coeffs.G, G, rtol=0, atol=1e-13 * np.abs(G).max())
    lam, V = np.linalg.eigh(S)
    keep = lam > 1e-8 * lam[-1]
    Vk = V[:, keep]
    S_pinv = (Vk / lam[keep]) @ Vk.conj().T
    # eigh is backward stable, with errors of order L eps lambda_max, so what
    # is read through S^+ differs by that times kappa = lambda_max / A
    tol = 10 * sys.L * np.finfo(float).eps * lam[-1] / lam[keep][0]

    an = analyze_system(sys)
    np.testing.assert_allclose(an.eigenvalues, lam, rtol=0, atol=1e-12 * lam[-1])
    rank = keep.sum()
    for fb in (frame_bounds(sys), an.frame):
        assert (fb.rank, fb.is_riesz_sequence) == (rank, rank == sys.n_time * sys.n_freq)
        assert fb.upper == pytest.approx(lam[-1], rel=1e-12)
        assert fb.lower == pytest.approx(lam[keep][0], abs=1e-12 * lam[-1])

    dual = canonical_dual(sys)
    assert np.linalg.norm(dual.gamma - S_pinv @ sys.window) <= tol * np.linalg.norm(dual.gamma)
    assert dual.span.rank == rank
    assert np.linalg.norm(dual.span.projector() - Vk @ Vk.conj().T) <= tol * np.sqrt(rank)


class TestCrossAndJanssen:
    def test_cross_collapses_to_frame_operator(self):
        g = periodized_gaussian(48, np.pi)
        sys = FiniteGaborSystem(48, 6, 8, g)
        S1 = frame_operator_direct(sys)
        S2 = cross_frame_operator(g, g, 6, 8)
        assert np.allclose(S1, S2, atol=1e-12)

    def test_orthogonal_analyzer_gives_zero(self):
        L = 16
        g = delta(L, 0)
        gamma = delta(L, 1)  # misses every pi(4k, 4l) delta_0
        S = cross_frame_operator(gamma, g, 4, 4)
        assert np.linalg.norm(S) < 1e-14

    def test_janssen_equals_cross_reference_system(self):
        L = 144
        g = periodized_gaussian(L, np.pi)
        dual = canonical_dual(FiniteGaborSystem(L, 12, 8, g))
        S_cross = cross_frame_operator(dual.gamma, g, 18, 24)
        S_janssen, _, const = janssen_representation(dual.gamma, g, 18, 24)
        assert const == pytest.approx(L / (18 * 24))
        rel = np.linalg.norm(S_janssen - S_cross) / np.linalg.norm(S_cross)
        assert rel < 1e-8

    def test_janssen_small_closed_form(self):
        L = 4
        g = delta(L)
        S_cross = cross_frame_operator(g, g, 4, 4)
        S_janssen, _, _ = janssen_representation(g, g, 4, 4)
        assert np.allclose(S_cross, np.outer(g, g.conj()), atol=1e-14)
        assert np.allclose(S_janssen, S_cross, atol=1e-13)

    def test_janssen_coefficient_decay_gaussian_pair(self):
        # absolute-summability proxy: the (8, 6)-block carries everything
        L = 144
        g = periodized_gaussian(L, np.pi)
        _, coef, _ = janssen_representation(g, g, 18, 24)
        mags = np.abs(coef)
        f_steps, t_steps = mags.shape
        outside = [
            mags[m, n]
            for m in range(f_steps)
            for n in range(t_steps)
            if min(m, f_steps - m) > 8 or min(n, t_steps - n) > 6
        ]
        assert max(outside) < 1e-12

    def test_step_divisibility_enforced(self):
        g = random_signal(12)
        with pytest.raises(InvalidLattice):
            cross_frame_operator(g, g, 5, 4)
        with pytest.raises(InvalidLattice):
            janssen_representation(g, g, 12, 7)


class TestPeriodizedGaussian:
    def test_symmetry(self):
        g = periodized_gaussian(36, 1.3)
        for n in range(1, 36):
            assert g[n] == pytest.approx(g[36 - n], abs=1e-15)

    def test_self_dual_at_pi(self):
        for L in (120, 144):
            g = periodized_gaussian(L, np.pi)
            n = np.arange(L)
            W = np.exp(-2j * np.pi * np.outer(n, n) / L) / np.sqrt(L)
            assert np.linalg.norm(W @ g - g) < 1e-8

    def test_maximum_at_zero(self):
        g = periodized_gaussian(50, 0.7)
        assert np.argmax(g) == 0

    def test_unit_norm(self):
        assert np.linalg.norm(periodized_gaussian(40, 2.2)) == pytest.approx(1.0)

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidParameter):
            periodized_gaussian(32, 0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_width(self, c):
        # every term of a NaN or infinite width is NaN, so the series never stops
        with pytest.raises(InvalidParameter):
            periodized_gaussian(32, c)

    @pytest.mark.parametrize("L", [16, 120, 480, 4096])
    def test_tiny_width_is_the_flat_window(self, L):
        # the series needs ~(c L)^(-1/2) terms: c = 1e-300 never returned.  Below
        # c L = pi^2 / ln(1e17) the periodization is flat to the series' own 1e-17
        flat = np.full(L, 1 / np.sqrt(L))
        assert np.array_equal(periodized_gaussian(L, 1e-300), flat)
        # just above the cut the series runs and lands on the same window
        assert np.abs(periodized_gaussian(L, 0.26 / L) - flat).max() < 1e-14 / np.sqrt(L)


@pytest.mark.parametrize("rank_tol", [0.0, -1.0, 1.0, 2.0, np.inf, np.nan])
def test_analyze_system_rejects_rank_tol_outside_unit_interval(rank_tol):
    # rank_tol >= 1 keeps no eigenvalue, so the frame bounds have nothing to read
    sys = FiniteGaborSystem(12, 4, 4, periodized_gaussian(12, np.pi))
    with pytest.raises(InvalidParameter):
        analyze_system(sys, rank_tol)


class TestSubspaceBasis:
    @pytest.mark.parametrize(
        "blocks",
        [
            [[[1.0, 1.0], [0.0, 1.0]]],  # dense, F = 1: non-orthogonal columns
            [[[2.0], [0.0]]],  # dense: a column of norm 2
            [[[0.0, 1.0], [0.0, 0.0]]],  # dense: a dropped column before a kept one
            [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.6], [0.0, 0.8]]],  # F = 2: block 1
            [[[1.0]], [[0.5]]],  # F = 2, n = 1: an entry of modulus 1/2
        ],
    )
    def test_rejects_non_orthonormal_blocks(self, blocks):
        with pytest.raises(ValueError):
            SubspaceBasis(np.array(blocks))


class TestSupportSpace:
    def test_delta_full_step_one(self):
        basis, h = support_space(delta(8), 1)
        assert np.allclose(h, 1.0)
        assert basis.rank == 8

    def test_half_supported_window(self):
        L = 16
        g = np.zeros(L, dtype=complex)
        g[: L // 2] = RNG.normal(size=L // 2) + 0.5
        basis, h = support_space(g, L)
        assert np.allclose(h, np.abs(g) ** 2, atol=1e-14)
        assert basis.rank == L // 2

    def test_gaussian_has_full_support(self):
        g = periodized_gaussian(48, np.pi)
        basis, h = support_space(g, 12)
        assert h.min() > 0
        assert basis.rank == 48

    def test_modulation_invariant_frame_operator_is_diagonal(self):
        # with all L modulations present, S = L * diag(h): the span is the
        # coordinate space on the support of h
        L, a = 24, 6
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, a, 1, g)
        S = frame_operator_direct(sys)
        _, h = support_space(g, a)
        assert np.linalg.norm(S - L * np.diag(h)) / np.linalg.norm(S) < 1e-12

    def test_zero_window_rejected(self):
        with pytest.raises(ZeroWindow):
            support_space(np.zeros(8), 2)
