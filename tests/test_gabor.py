"""Finite Gabor model: shifts, frame operators, duals, Walnut/Janssen forms."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborinv import gabor
from gaborinv.errors import InvalidLattice, InvalidParameter, ZeroWindow
from gaborinv.invariance import criteria_engine, dft_vector_relation, scan_invariance
from gaborinv.gabor import (
    FiniteGaborSystem,
    SubspaceBasis,
    analyze_system,
    canonical_dual,
    cross_frame_operator,
    fibre_representatives,
    frame_bounds,
    frame_operator_direct,
    frame_operator_walnut,
    gabor_matrix,
    is_hermitian,
    janssen_representation,
    orbit_map,
    periodized_gaussian,
    rank_cut,
    shift_operator,
    support_space,
    tf_shift,
    tf_shifts,
    walnut_fibres,
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
        "t, m, same",
        [(10**30, 0, (10**30 % 12, 0)), (0, 10**30, (0, 10**30 % 12)), (2.0, 3, (2, 3)),
         (np.int64(-7), -1, (5, 11))],
        ids=["big-t", "big-m", "integral-float", "negative"],
    )
    def test_integers_are_read_exactly_mod_L(self, t, m, same):
        # 10**30 as t raised OverflowError, as m IndexError; 2.0 raised IndexError
        f = random_signal(12)
        np.testing.assert_array_equal(tf_shift(f, t, m), tf_shift(f, *same))

    @pytest.mark.parametrize(
        "t, m", [("1", 0), (2.5, 0), (0, None)], ids=["str", "fraction", "none"]
    )
    def test_a_non_integer_shift_is_rejected(self, t, m):
        # "1" raised a numpy UFuncTypeError
        with pytest.raises(InvalidParameter, match="tf_shift needs integers"):
            tf_shift(random_signal(12), t, m)

    @pytest.mark.parametrize(
        "f", [np.ones(0), np.float64(1.0), np.ones((3, 2))], ids=["empty", "scalar", "matrix"]
    )
    def test_a_signal_is_a_vector_of_length_at_least_one(self, f):
        # an empty signal gave ZeroDivisionError, a scalar IndexError, and a matrix a
        # broadcast (3, 2) array that is no shift of its columns
        with pytest.raises(InvalidParameter, match="tf_shift needs a signal of length L >= 1"):
            tf_shift(f, 1, 1)

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

    @pytest.mark.parametrize("shape", [(11,), (12, 1), ()], ids=["short", "column", "scalar"])
    def test_window_must_have_length_L(self, shape):
        with pytest.raises(InvalidLattice, match="window length must equal L"):
            FiniteGaborSystem(12, 3, 4, np.ones(shape))

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

    @staticmethod
    def tiny_system(scale):
        w = np.full(12, scale / 5)
        w[0] = scale
        return FiniteGaborSystem(12, 4, 4, w)

    def test_tiny_normal_spectrum_is_analysed(self):
        # lambda_max is about 1e-300, still normal: 1/lambda is finite (warnings are errors)
        an = analyze_system(self.tiny_system(1e-150))
        assert np.isfinite(an.dual.gamma).all()
        S, g = frame_operator_direct(an.system), an.system.window
        assert np.linalg.norm(S @ an.dual.gamma - g) < 1e-8 * np.linalg.norm(g)

    @pytest.mark.parametrize("scale", [1e-155, 1e-160])
    def test_subnormal_spectrum_rejected(self, scale):
        # lambda_max is subnormal: 1/lambda overflowed and gamma held inf and nan
        with pytest.raises(InvalidParameter, match="underflows: a kept 1/lambda is not finite"):
            analyze_system(self.tiny_system(scale))

    def test_vanishing_spectrum_rejected(self):
        with pytest.raises(InvalidParameter, match="underflows: lambda_max is 0"):
            analyze_system(self.tiny_system(1e-170))


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


class TestStoredAnalysis:
    @staticmethod
    def system():
        return FiniteGaborSystem(48, 8, 8, tf_shift(periodized_gaussian(48, np.pi), 5, 3))

    def test_repeated_calls_share_one_analysis(self):
        sys = self.system()
        an = analyze_system(sys)
        assert analyze_system(sys) is an
        assert canonical_dual(sys) is an.dual and frame_bounds(sys) is an.frame

    def test_each_rank_tol_has_its_own_analysis(self):
        sys = self.system()
        an, coarse = analyze_system(sys), analyze_system(sys, 1e-6)
        assert coarse is not an and coarse.rank_tol == 1e-6
        assert analyze_system(sys, 1e-6) is coarse and analyze_system(sys) is an

    @pytest.mark.parametrize(
        "sys, error",
        [
            (FiniteGaborSystem(8, 4, 4, np.zeros(8)), ZeroWindow),
            (TestCanonicalDual.tiny_system(1e-170), InvalidParameter),
        ],
    )
    def test_a_failed_analysis_raises_on_every_call(self, sys, error):
        for _ in range(3):
            with pytest.raises(error):
                analyze_system(sys)

    def test_replaced_system_is_analysed_afresh(self):
        sys = self.system()
        an = analyze_system(sys)
        assert analyze_system(replace(sys)) is not an
        moved = replace(sys, window=tf_shift(sys.window, 1, 0))
        fresh = analyze_system(FiniteGaborSystem(48, 8, 8, moved.window))
        np.testing.assert_array_equal(analyze_system(moved).dual.gamma, fresh.dual.gamma)
        assert not np.array_equal(fresh.dual.gamma, an.dual.gamma)

    def test_shared_arrays_are_read_only(self):
        sys = self.system()
        before = criteria_engine(sys, 2).to_json_dict()
        an = analyze_system(sys)
        for shared in (canonical_dual(sys).gamma, an.dual.span.blocks, an.dual.span.ranks,
                       an.eigenvalues):
            with pytest.raises(ValueError):
                shared[(0,) * shared.ndim] = 0
        assert criteria_engine(sys, 2).to_json_dict() == before

    def test_each_distinct_block_is_checked_once(self, monkeypatch):
        """V and K are Gram-checked on their G = 2 orbit representatives at
        (480, 48, 48), then gathered to V's 10 and K's 48 blocks unchecked."""
        seen, check = [], SubspaceBasis.__post_init__
        monkeypatch.setattr(
            SubspaceBasis, "__post_init__", lambda q: seen.append(len(q.blocks)) or check(q)
        )
        an = analyze_system(FiniteGaborSystem(480, 48, 48, periodized_gaussian(480, np.pi)))
        assert seen == [2, 2]
        assert an.dual.span.blocks.shape[0] == 10 and an.adjoint_span.blocks.shape[0] == 48

    def test_one_factorization_per_system(self, monkeypatch):
        sys, calls = self.system(), []

        def counted(g, t_step, f_step):
            calls.append((t_step, f_step))
            return fibre_representatives(g, t_step, f_step)

        monkeypatch.setattr(gabor, "fibre_representatives", counted)
        criteria_engine(sys, 2)
        scan_invariance(sys, 2)
        canonical_dual(sys)
        frame_bounds(sys)
        dft_vector_relation(sys, 2)
        assert calls.count((sys.a, sys.b)) == 1


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


def check_fibre_svd(g, t, f):
    """The SVD of fibre_representatives(g, t, f) and orbit_map against the rolled
    blocks and a per-block SVD.  With P = L/f, G = gcd(t, P), x P = G mod t and
    y = (x P - G)/t, block r0 + q G is Z[r0][(j + q x) mod f, (k + q y) mod L/t]."""
    L = g.shape[0]
    P = L // f
    G = math.gcd(t, P)
    x = pow(P // G, -1, t // G)
    y = (x * P - G) // t
    q, r0 = np.divmod(np.arange(P), G)
    Z = walnut_fibres(g, t, f)
    rows = (np.arange(f) + q[:, None] * x) % f
    cols = (np.arange(L // t) + q[:, None] * y) % (L // t)
    assert np.array_equal(Z, Z[r0[:, None, None], rows[:, :, None], cols[:, None, :]])

    U, s, _ = np.linalg.svd(fibre_representatives(g, t, f), full_matrices=False)
    orbit, rows_map = orbit_map(L, t, f)
    assert U.shape[0] == s.shape[0] == G
    np.testing.assert_array_equal(orbit, r0)
    np.testing.assert_array_equal(rows_map, rows)
    U, s = U[orbit[:, None], rows_map], s[orbit]
    blocks = Z.reshape(P, f, -1)
    ref = np.linalg.svd(blocks, compute_uv=False)
    atol = 1e-12 * ref.max(axis=1, initial=0.0)[:, None]
    assert np.all(np.abs(s - ref) <= atol)
    gram = U.conj().swapaxes(1, 2) @ U
    assert np.abs(gram - np.eye(U.shape[2])).max(initial=0.0) <= 1e-12
    assert np.all(np.abs(np.linalg.norm(blocks.conj().swapaxes(1, 2) @ U, axis=1) - s) <= atol)


@pytest.mark.parametrize("windows", [1, 3])
def test_fibre_svd_matches_every_block(windows):
    """Every L <= 72 and every t, f | L, on one random window or a stack of three."""
    rng = np.random.default_rng(windows)
    for L in range(1, 73):
        divs = [d for d in range(1, L + 1) if L % d == 0]
        g = rng.normal(size=(L, windows)) + 1j * rng.normal(size=(L, windows))
        for t in divs:
            for f in divs:
                check_fibre_svd(g[:, 0] if windows == 1 else g, t, f)


@pytest.mark.parametrize(
    "L, t, f, G",
    [(60, 6, 12, 1), (72, 12, 6, 12), (480, 48, 48, 2), (480, 10, 20, 2)],
    ids=["G=1", "G=P", "large-L analysis", "large-L slice"],
)
def test_fibre_svd_orbit_count(L, t, f, G):
    """Named cases: one orbit, no repeated block, and two benchmark shapes."""
    g = fibre_window(L, "gaussian", L)
    assert np.linalg.svd(fibre_representatives(g, t, f), compute_uv=False).shape[0] == G
    check_fibre_svd(g, t, f)


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

    def test_non_finite_window_rejected(self):
        g, bad = random_signal(12), random_signal(12)
        bad[3] = np.inf
        for window_pair in ((g, bad), (bad, g)):
            for run in (cross_frame_operator, janssen_representation):
                with pytest.raises(InvalidParameter, match="window entries must be finite"):
                    run(*window_pair, 4, 4)


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


class TestRankCut:
    def test_a_value_at_the_threshold_is_dropped(self):
        # 0.25 * 4.0 = 1.0 exactly: the rule is a strict s > rank_tol * s_max
        assert rank_cut(np.array([4.0, 2.0, 1.0, 0.5]), 0.25).tolist() == [True, True, False, False]

    def test_all_zero_keeps_nothing(self):
        for s in (np.zeros((3, 2)), np.zeros((2, 0))):
            keep = rank_cut(s, 1e-8)
            assert keep.shape == s.shape and not keep.any()

    def test_the_maximum_is_taken_over_every_block(self):
        s = np.array([[1.0, 0.5], [1e-9, 0.0]])
        assert rank_cut(s, 1e-8).tolist() == [[True, True], [False, False]]


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


# -- the frame-layer kernels against the index gathers they replace -------------------


@st.composite
def kernel_cases(draw, max_L=72):
    """(L, t_step, f_step, x): steps dividing L and a random real or complex signal, or an
    (L, c) stack of them, with signed zeros among the entries."""
    L = draw(st.integers(1, max_L))
    divs = [d for d in range(1, L + 1) if L % d == 0]
    t_step, f_step = draw(st.sampled_from(divs)), draw(st.sampled_from(divs))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (L,) if draw(st.booleans()) else (L, draw(st.integers(1, 3)))
    x = rng.normal(size=shape)
    if draw(st.booleans()):
        x = x + 1j * rng.normal(size=shape)
    x[rng.random(shape) < 0.2] *= -0.0
    return L, t_step, f_step, x


def gathered_fibres(g, t_step, f_step, blocks):
    """The first `blocks` Walnut blocks as one index gather, g[(r + j P - k t_step) mod L]."""
    L = g.shape[0]
    r, j, k = np.ogrid[:blocks, :f_step, : L // t_step]
    return g[(r + j * (L // f_step) - k * t_step) % L]


def assert_same_bits(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
@example((12, 2, 3, np.arange(12.0)))  # G = t_step
@example((12, 3, 3, np.arange(24.0).reshape(12, 2)))  # a stack with G = 1: one representative
@example((12, 1, 12, np.arange(24.0).reshape(12, 2)))  # L/f_step = 1: one block
def test_fibres_are_the_index_gather(case):
    L, t_step, f_step, g = case
    Z = walnut_fibres(g, t_step, f_step)
    assert_same_bits(Z, gathered_fibres(g, t_step, f_step, L // f_step))
    assert Z.flags.c_contiguous and Z.flags.writeable
    G = math.gcd(t_step, L // f_step)
    reps = fibre_representatives(g, t_step, f_step)
    assert_same_bits(reps, gathered_fibres(g, t_step, f_step, G).reshape(G, f_step, -1))


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.integers(0, 2**32 - 1))
def test_tf_shifts_is_the_index_gather(case, seed):
    L, _, _, f = case
    f = f if f.ndim == 1 else f[:, 0]
    rng = np.random.default_rng(seed)
    t, m = rng.integers(-3 * L, 3 * L + 1, size=(2, rng.integers(1, 6)))  # below 0 and >= L
    n = np.arange(L)[:, None]
    w = np.exp(2j * np.pi * np.arange(L) / L)
    assert_same_bits(tf_shifts(f, t, m), f[(n - t) % L] * w[m * (n - t) % L])


@settings(max_examples=100, deadline=None)
@given(kernel_cases())
def test_tf_inner_products_match_a_dense_loop(case):
    L, t_step, f_step, x = case
    f, h = (x, x[::-1] + 1) if x.ndim == 1 else (x[:, 0], x[:, -1] + 1)
    ip = gabor.tf_inner_products(f, h, t_step, f_step)
    dense = np.array(
        [[np.vdot(tf_shift(h, k * t_step, l * f_step), f) for l in range(L // f_step)]
         for k in range(L // t_step)]
    )
    atol = 1e-12 * np.linalg.norm(f) * np.linalg.norm(h)  # for entries that cancel to 0
    np.testing.assert_allclose(ip, dense, rtol=1e-12, atol=atol)


class TestTfShiftsBoundary:
    @pytest.mark.parametrize(
        "t, m", [(2.0, 0), (0, 2.5), ("1", 0), (np.array([1.0, 2.0]), 0), (0, None)],
        ids=["integral-float", "fraction", "str", "float-array", "none"],
    )
    def test_a_non_integer_shift_is_rejected(self, t, m):
        # 2.0 and 2.5 raised IndexError and "1" a numpy UFuncTypeError
        with pytest.raises(InvalidParameter, match="tf_shifts needs integer shifts"):
            tf_shifts(np.ones(12), t, m)

    def test_python_ints_beyond_int64_are_reduced_mod_L(self):
        # 10**30 raised OverflowError
        f = random_signal(12)
        big = tf_shifts(f, [10**30, 5], [-(10**30), 7])
        assert_same_bits(big, tf_shifts(f, [10**30 % 12, 5], [-(10**30) % 12, 7]))

    @pytest.mark.parametrize("f", [np.ones(0), np.float64(1.0), np.ones((3, 2))])
    def test_a_signal_is_a_vector_of_length_at_least_one(self, f):
        with pytest.raises(InvalidParameter, match="tf_shifts needs a signal of length L >= 1"):
            tf_shifts(f, 1, 1)


def test_translates_is_a_read_only_view_of_the_doubled_signal():
    x = random_signal(12)
    rows = gabor.translates(x, 4)
    assert rows.shape == (3, 12) and not rows.flags.writeable
    for k in range(3):
        assert_same_bits(rows[k], np.roll(x, 4 * k))


def test_inner_product_table_memory_is_bounded():
    # at (4096, 64, 64) the gathered rows conj(T_{k t} h) and their product with f took
    # 4 MiB each, with an int64 index of 2 MiB (8.2 MiB peak); folded a few rows at a
    # time the call peaks at 0.44 MiB
    L = 4096
    g = periodized_gaussian(L, np.pi)
    h = np.roll(g, 3) * np.exp(2j * np.pi * np.arange(L) / 7)
    gabor.tf_inner_products(g, h, L // 64, L // 64)
    tracemalloc.start()
    try:
        gabor.tf_inner_products(g, h, L // 64, L // 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
