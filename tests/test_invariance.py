"""Invariance scans, the duality criteria engine, and the Gaussian scenario."""

import tracemalloc
from dataclasses import replace
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_gabor import fibred_systems, fibre_window

from gaborinv.density import (
    ExcludedResidueProduct,
    equidistribution_diagnostic,
    lower_density_empirical,
    omega_density_formula,
    omega_spec,
)
from gaborinv.errors import (
    DEFAULT_RANK_TOL,
    DegenerateInput,
    InvalidIndex,
    InvalidLattice,
    InvalidModulus,
    InvalidNu,
    InvalidOrder,
    InvalidParameter,
    InvalidRefinement,
    NotUndersampled,
    UnsupportedLength,
    ZeroInput,
    ZeroWindow,
)
from gaborinv.gabor import (
    FiniteGaborSystem,
    SubspaceBasis,
    analyze_system,
    canonical_dual,
    cross_frame_operator,
    fibre_representatives,
    frame_operator_direct,
    gabor_matrix,
    janssen_representation,
    orbit_map,
    orthonormal_range,
    periodized_gaussian,
    rank_cut,
    support_space,
    tf_shift,
    walnut_fibres,
)
from gaborinv.invariance import (
    GAP_FACTOR,
    criteria_engine,
    dft_vector_relation,
    gaussian_corollary_scenario,
    group_closure_check,
    membership_residual,
    scan_invariance,
    small_shift_completeness,
)
from gaborinv.lattice import (
    SeparableLattice,
    coset_decomposition,
    order_in_lattice,
    reduce_invariant_shift,
)
from gaborinv.symplectic import metaplectic_from_generators, rho_operator, transport_system


def gaussian_system(L=120, a=12, b=12, c=np.pi):
    return FiniteGaborSystem(L, a, b, periodized_gaussian(L, c))


def shifted_sum_window(L, a, nu, c=np.pi):
    """w = sum_{j<nu} T_{j a/nu} g0, the two-bump positive-case window."""
    g0 = periodized_gaussian(L, c)
    w = sum(tf_shift(g0, j * (a // nu), 0) for j in range(nu))
    return w / np.linalg.norm(w)


def periodic_window(L, period, c=np.pi):
    """Full orbit periodization: T_period w = w exactly."""
    g0 = periodized_gaussian(L, c)
    w = sum(tf_shift(g0, j * period, 0) for j in range(L // period))
    return w / np.linalg.norm(w)


class TestMembership:
    def test_in_span(self):
        sys = gaussian_system()
        span = orthonormal_range(gabor_matrix(sys))
        assert membership_residual(span, sys.window) < 1e-12

    def test_orthogonal_vector(self):
        span = orthonormal_range(np.eye(8)[:, :3].astype(complex))
        f = np.zeros(8, dtype=complex)
        f[5] = 1.0
        assert membership_residual(span, f) == pytest.approx(1.0)

    def test_lattice_points_always_inside(self):
        sys = gaussian_system()
        span = orthonormal_range(gabor_matrix(sys))
        for k in range(sys.n_time):
            for l in range(sys.n_freq):
                r = membership_residual(span, tf_shift(sys.window, k * 12, l * 12))
                assert r < 1e-10

    def test_zero_input_rejected(self):
        span = orthonormal_range(np.eye(4).astype(complex))
        with pytest.raises(ZeroInput):
            membership_residual(span, np.zeros(4))

    @pytest.mark.parametrize("n", [3, 5, 8, (4, 2)])
    def test_signal_length_must_be_L(self, n):
        # a bare reshape ValueError; an (L, 2) stack gave one ratio over both columns
        span = orthonormal_range(np.eye(4).astype(complex))
        with pytest.raises(InvalidParameter, match="signal length must equal L=4"):
            membership_residual(span, np.ones(n))


class TestScan:
    def test_gaussian_detects_only_lattice(self):
        rep = scan_invariance(gaussian_system(), refinement=4)
        assert rep.verdict == "subset_of_refined_lattice"
        assert rep.verdict_m == 1
        assert set(rep.invariant_set) == set(rep.lattice_points)

    def test_gap_between_in_and_out(self):
        rep = scan_invariance(gaussian_system(), refinement=4)
        inset = set(rep.invariant_set)
        rin = max(r for p, r in zip(rep.tested_points, rep.residuals) if p in inset)
        rout = min(r for p, r in zip(rep.tested_points, rep.residuals) if p not in inset)
        assert rout / rin > 1e3

    def test_periodic_window_detects_half_shift(self):
        L, a, b = 120, 12, 12
        sys = FiniteGaborSystem(L, a, b, periodic_window(L, a // 2))
        rep = scan_invariance(sys, refinement=2)
        assert (a // 2, 0) in rep.invariant_set
        assert rep.verdict == "subset_of_refined_lattice"
        assert rep.verdict_m == 2

    def test_full_lattice_spans_everything(self):
        L = 16
        g = periodized_gaussian(L, np.pi)
        rep = scan_invariance(FiniteGaborSystem(L, 1, 1, g), refinement=1)
        assert rep.verdict == "spans_everything"
        assert rep.invariant_set == rep.tested_points  # every point, t-major

    def test_gray_band_gives_inconclusive(self):
        # with tol = 1e-3 the out-of-set residuals (~0.3) sit inside the
        # mandatory [tol, 1000 tol] gap band
        rep = scan_invariance(gaussian_system(), refinement=4, tol=1e-3)
        assert rep.verdict == "inconclusive"

    def test_residual_of_rejects_points_off_the_grid(self):
        rep = scan_invariance(gaussian_system(), refinement=4)  # grid steps 3
        for point in ((1, 0), (120, 0), (0, -3)):
            with pytest.raises(ValueError):
                rep.residual_of(point)

    def test_refinement_must_divide(self):
        with pytest.raises(InvalidRefinement):
            scan_invariance(gaussian_system(), refinement=5)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, 1.0, np.inf])
    def test_tol_outside_unit_interval_rejected(self, tol):
        # a NaN tol detects no point at all, a negative one fails every criterion
        sys = gaussian_system(12, 4, 4)
        runs = (
            lambda: scan_invariance(sys, 2, tol),
            lambda: criteria_engine(sys, 2, tol),
            lambda: gaussian_corollary_scenario(12, 4, 4, np.pi, 2, 2, tol),
        )
        for run in runs:
            with pytest.raises(InvalidParameter):
                run()

    def test_zero_window_rejected(self):
        with pytest.raises(ZeroWindow):
            scan_invariance(FiniteGaborSystem(8, 4, 4, np.zeros(8)), refinement=2)

    def test_span_stays_in_blocks_at_large_L(self):
        # a dense L x rank span at L = 2048 alone takes 64 MiB; each run gets a fresh
        # system, so that the scan's budget also covers the analysis it stores
        for run, budget in ((analyze_system, 16), (lambda s: scan_invariance(s, 4), 32)):
            sys = gaussian_system(2048, 32, 32)
            tracemalloc.start()
            try:
                run(sys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < budget * 2**20, (run, peak)

    def test_report_holds_the_class_table(self):
        # 262,144 grid points and 256 classes: a tuple per point takes 48 MiB
        sys = gaussian_system(1024, 32, 32)
        tracemalloc.start()
        try:
            rep = scan_invariance(sys, 16)
            closed = group_closure_check(rep, sys)
            rep.residual_of((2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert closed and rep.verdict_m == 1
        assert peak < 20 * 2**20, peak


@st.composite
def scanned_systems(draw):
    sys = draw(fibred_systems())
    g = gcd(sys.a, sys.b)
    return sys, draw(st.sampled_from([r for r in range(1, g + 1) if g % r == 0]))


def dense_scan(sys, refinement, tol=1e-6, rank_tol=1e-8):
    """Every grid point's residual against the span of eigh(S), cut at
    rank_tol * lambda_max, and the verdict read from them."""
    L, a, b = sys.L, sys.a, sys.b
    lam, V = np.linalg.eigh(frame_operator_direct(sys))
    keep = lam > rank_tol * lam[-1]
    Q = V[:, keep]
    points = [(t, m) for t in range(0, L, a // refinement) for m in range(0, L, b // refinement)]
    cols = np.stack([tf_shift(sys.window, t, m) for t, m in points], axis=1)
    resid = np.linalg.norm(cols - Q @ (Q.conj().T @ cols), axis=0) / np.linalg.norm(sys.window)
    detected = [p for p, v in zip(points, resid) if v < tol]
    if np.any((resid >= tol) & (resid <= GAP_FACTOR * tol)):
        verdict, m = "inconclusive", None
    elif len(detected) == len(points) and keep.sum() == L:
        verdict, m = "spans_everything", None
    else:
        verdict = "subset_of_refined_lattice"
        m = next(
            m for m in range(1, refinement + 1)
            if refinement % m == 0 and all(t * m % a == 0 and f * m % b == 0 for t, f in detected)
        )
    return points, resid, detected, verdict, m, lam[-1] / lam[keep][0]


@settings(max_examples=100, deadline=None)
@given(scanned_systems())
def test_scan_matches_dense_oracle(case):
    """The r^2-class residual table against a residual per grid point."""
    sys, r = case
    points, resid, detected, verdict, m, kappa = dense_scan(sys, r)
    rep = scan_invariance(sys, r)
    assert rep.tested_points == tuple(points)
    assert all(rep.residual_of(p) == v for p, v in zip(rep.tested_points, rep.residuals))
    assert rep.lattice_points == tuple((t, m) for t, m in points if t % sys.a == 0 and m % sys.b == 0)
    err = 10 * sys.L * np.finfo(float).eps * kappa
    np.testing.assert_allclose(rep.residuals, resid, rtol=0, atol=err)
    # a residual within a factor 10 of a threshold may fall either side of it
    if all(v < c / 10 or v > 10 * c for v in resid for c in (rep.tol, GAP_FACTOR * rep.tol)):
        assert (rep.invariant_set, rep.verdict, rep.verdict_m) == (tuple(detected), verdict, m)


class TestGroupClosure:
    def test_lattice_only_set_is_closed(self):
        rep = scan_invariance(gaussian_system(), refinement=4)
        assert group_closure_check(rep, gaussian_system())

    def test_periodic_case_closed(self):
        L, a, b = 120, 12, 12
        sys = FiniteGaborSystem(L, a, b, periodic_window(L, 6))
        rep = scan_invariance(sys, refinement=2)
        assert group_closure_check(rep, sys)

    def test_corrupted_report_fails(self):
        sys = gaussian_system()
        rep = scan_invariance(sys, refinement=4)
        fake = (3, 0)  # isolated non-lattice grid point, class (1, 0)
        assert fake in rep.tested_points and fake not in rep.invariant_set
        table = rep.table.copy()
        table[1, 0] = 0.0
        corrupted = replace(rep, table=table)
        assert corrupted.residual_of(fake) < corrupted.tol
        assert not group_closure_check(corrupted, sys)

    def test_off_grid_point_or_other_system_fails(self):
        # the closure reads no points: test_residual_of_rejects_points_off_the_grid
        # covers off-grid ones
        sys = gaussian_system()
        rep = scan_invariance(sys, refinement=4)
        assert group_closure_check(rep, sys)
        assert not group_closure_check(rep, gaussian_system(120, 12, 24))

    def test_closure_of_a_large_report_stays_small(self):
        # spans everything: 262,144 detected points in 256 classes; reading them as
        # (t, m) pairs took 16 MiB
        sys = gaussian_system(512, 16, 16)
        rep = scan_invariance(sys, 16)
        assert rep.verdict == "spans_everything"
        tracemalloc.start()
        try:
            closed = group_closure_check(rep, sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert closed and peak < 4 * 2**20, peak


def closed_on_the_torus(points, L) -> bool:
    """Is a set of (t, m) pairs closed under negation and addition mod L?  Read on
    its L x L indicator: the support of its cyclic self-convolution is the sumset."""
    ind = np.zeros((L, L))
    ind[tuple(np.array(list(points), dtype=int).reshape(-1, 2).T)] = 1
    neg = ind[np.ix_(-np.arange(L) % L, -np.arange(L) % L)]
    sums = np.fft.ifft2(np.fft.fft2(ind) ** 2).real > 0.5
    return bool(np.all(neg <= ind) and not np.any(sums & (ind == 0)))


@settings(max_examples=100, deadline=None)
@given(scanned_systems(), st.sampled_from([1e-6, 1e-3, 0.1]), st.data())
def test_closure_matches_the_detected_points(case, tol, data):
    """The subgroup test of the class mask against the detected points on Z_L^2;
    the larger tol make many reports inconclusive.  A scan's set is a group, so
    half the reports get one more class marked detected, which most often is not."""
    sys, r = case
    rep = scan_invariance(sys, r, tol)
    if data.draw(st.booleans()):
        table = rep.table.copy()
        table[data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))] = 0.0
        rep = replace(rep, table=table)
        detected = tuple(p for p, v in zip(rep.tested_points, rep.residuals) if v < tol)
        rep = replace(rep, invariant_set=detected)
    assert group_closure_check(rep, sys) == closed_on_the_torus(rep.invariant_set, sys.L)


@settings(max_examples=100, deadline=None)
@given(fibred_systems())
def test_adjoint_blocks_are_the_reversed_transposes(sys):
    """Walnut duality, bit for bit: block r0 of the adjoint system (L/b, L/a) is
    block r0 of (a, b) transposed, row k read from -k mod L/a, column j from -j mod b."""
    L, a, b, g = sys.L, sys.a, sys.b, sys.window
    G, N = gcd(a, L // b), L // a
    Z, Z_adj = walnut_fibres(g, a, b)[:G], walnut_fibres(g, L // b, N)[:G]
    assert np.array_equal(Z_adj, Z.swapaxes(1, 2)[:, -np.arange(N) % N][:, :, -np.arange(b) % b])


@settings(max_examples=100, deadline=None)
@given(fibred_systems())
def test_adjoint_span_matches_a_direct_svd_of_the_adjoint_system(sys):
    """The stored K, read from the right singular vectors of (a, b), against a
    direct SVD of the representatives of the adjoint system (L/b, L/a), cut by the
    same rule."""
    L, a, b, g = sys.L, sys.a, sys.b, sys.window
    G, N = gcd(a, L // b), L // a
    K = analyze_system(sys).adjoint_span
    U, s, _ = np.linalg.svd(fibre_representatives(g, L // b, N), full_matrices=False)
    keep = rank_cut(s, DEFAULT_RANK_TOL)
    orbit, rows = orbit_map(L, L // b, N)
    K_ref = SubspaceBasis((U * keep[:, None, :])[orbit[:, None], rows])
    assert K.blocks.shape == (a, N, min(b, N)) and not K.blocks.flags.writeable
    np.testing.assert_array_equal(K.ranks, K_ref.ranks)
    # two SVDs of one block agree on a kept subspace to eps s_max over its gap (Wedin)
    scale = max(s.max(initial=0.0), 1e-300)
    s, kept = np.pad(s, ((0, 0), (0, 1))), keep.sum(axis=1)
    gaps = (s[np.arange(G), kept - 1] - s[np.arange(G), kept])[kept > 0]
    bound = 100 * np.finfo(float).eps * scale / gaps.min(initial=np.inf)
    assert np.abs(K.projector() - K_ref.projector()).max() <= bound


class TestCriteriaEngine:
    def test_a_second_call_builds_no_basis(self, monkeypatch):
        """The analysis builds V and K once; a later call reads both."""
        built, check = [], SubspaceBasis.__post_init__
        monkeypatch.setattr(SubspaceBasis, "__post_init__", lambda q: built.append(q) or check(q))
        sys = gaussian_system()
        criteria_engine(sys, 2)
        assert len(built) == 2
        criteria_engine(sys, 3)
        assert len(built) == 2

    def test_adjoint_blocks_come_from_the_stored_analysis(self, monkeypatch):
        cases = [
            # the slice's 2 orbit representatives as (2 * 10, 12) stacks in K's largest
            # kept rank 10, then their rows by class j mod 2, (2, 2, 10, 12)
            (gaussian_system(), [(2, 20, 12), (2, 2, 10, 12)]),
            # K keeps rank 1 per block: the 10 representatives are (2, 48) stacks, not
            # the slice's own (24, 48) blocks, and each keeps rank 1
            (FiniteGaborSystem(480, 40, 48, periodic_window(480, 20)), [(10, 2, 48), (10, 2, 1, 1)]),
        ]
        found, svd = [], np.linalg.svd

        def counted(A, *args, **kwargs):
            found.append(A.shape)
            return svd(A, *args, **kwargs)

        for sys, shapes in cases:
            analyze_system(sys)
            found.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", counted)
                criteria_engine(sys, 2)
            # the adjoint blocks of (L/b, L/a) come from the stored analysis and are
            # not factored again; the slice is factored inside their kept columns
            assert found == shapes

    def test_positive_case_all_hold(self):
        L, a, b, nu = 144, 12, 8, 2
        sys = FiniteGaborSystem(L, a, b, shifted_sum_window(L, a, nu))
        rep = criteria_engine(sys, nu)
        assert rep.verdict == "all_hold"
        assert rep.verdict_consistent
        assert rep.res_i < 1e-8
        assert max(rep.res_ii) < 1e-8
        assert rep.res_iv < 1e-8
        assert rep.rank_sum == rep.joint_rank
        assert rep.projections_ok
        assert all(v < 1e-8 for v in rep.projection_residuals.values())
        assert rep.constant == pytest.approx(a * b / L)

    def test_positive_case_periodic_window(self):
        L, a, b, nu = 144, 12, 8, 2
        sys = FiniteGaborSystem(L, a, b, periodic_window(L, a // nu))
        rep = criteria_engine(sys, nu)
        assert rep.verdict == "all_hold"
        assert rep.projections_ok

    def test_negative_case_all_fail(self):
        rep = criteria_engine(gaussian_system(), 2)
        assert rep.verdict == "all_fail"
        assert rep.verdict_consistent
        assert rep.res_i > 1e-3
        assert rep.res_iv > 1e-3
        assert rep.rank_sum > rep.joint_rank
        assert not rep.projections_ok

    def test_unconditional_projection_identities(self):
        # sum P_s = P_K and P_s|_{K^perp} = 0 hold even in the failing case
        rep = criteria_engine(gaussian_system(), 2)
        assert rep.projection_residuals["sum_equals_PK"] < 1e-8
        assert rep.projection_residuals["vanish_on_K_perp"] < 1e-8

    def test_nu_one_rejected(self):
        with pytest.raises(InvalidNu):
            criteria_engine(gaussian_system(), 1)

    def test_nu_must_divide_a(self):
        with pytest.raises(InvalidNu):
            criteria_engine(gaussian_system(), 5)

    def test_zero_window_rejected(self):
        # the one zero-window rule of analyze_system, as for the scan and the dual
        sys = FiniteGaborSystem(12, 4, 4, np.zeros(12))
        with pytest.raises(ZeroWindow):
            criteria_engine(sys, 2)

    def test_gamma_l0_diagnostic_reported(self):
        rep = criteria_engine(gaussian_system(), 2)
        assert 0.0 <= rep.gamma_l0_residual <= 1.0

    @pytest.mark.parametrize("nu, budget", [(2, 54), (4, 80)])
    def test_projection_residuals_build_no_dense_PK(self, nu, budget):
        # a zero-filled class-diagonal P_K, the size of P, took the peak to 58.5 MiB
        # at nu = 2 and 89.6 MiB at nu = 4; the class blocks read 50.4 and 73.5 MiB
        sys = gaussian_system(4096, 64, 64)
        analyze_system(sys)
        tracemalloc.start()
        try:
            criteria_engine(sys, nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget * 2**20, peak

    def test_consistency_holds_on_every_tested_system(self):
        # the four verdicts must never split, whatever the window
        cases = [
            (FiniteGaborSystem(120, 12, 12, periodized_gaussian(120, np.pi)), 2),
            (FiniteGaborSystem(144, 12, 8, shifted_sum_window(144, 12, 2)), 2),
            (FiniteGaborSystem(108, 12, 9, shifted_sum_window(108, 12, 3)), 3),
            (FiniteGaborSystem(108, 12, 9, periodized_gaussian(108, np.pi)), 3),
            (FiniteGaborSystem(96, 8, 16, periodized_gaussian(96, 2.0)), 4),
        ]
        for sys, nu in cases:
            rep = criteria_engine(sys, nu)
            assert rep.verdict_consistent, (sys.L, sys.a, sys.b, nu, rep.holds)


class TestDftVectorRelation:
    def test_positive_system(self):
        L, a, b, nu = 144, 12, 8, 2
        sys = FiniteGaborSystem(L, a, b, shifted_sum_window(L, a, nu))
        assert dft_vector_relation(sys, nu) < 1e-8

    def test_negative_system(self):
        assert dft_vector_relation(gaussian_system(), 2) < 1e-8

    def test_nu_three(self):
        L, a, b = 108, 12, 9
        sys = FiniteGaborSystem(L, a, b, periodized_gaussian(L, np.pi))
        assert dft_vector_relation(sys, 3) < 1e-8

    def test_orbit_representatives_keep_the_residual(self):
        # only G_s = gcd(L/b, a/nu) of the a/nu slice blocks are computed (2 of 6, 2 of 4,
        # 3 of 9); v, read back into every block's rows, matches the dense reference
        cases = [
            (gaussian_system(), 2),
            (gaussian_system(), 3),
            (FiniteGaborSystem(180, 18, 12, periodic_window(180, 9)), 2),
        ]
        for sys, nu in cases:
            assert abs(dft_vector_relation(sys, nu) - dense_dft_vector_relation(sys, nu)) <= 1e-12

    def test_swap_sign_substitution_positive_case(self):
        # when v = (g, 0), the inverse DFT forces u = (g, g): every
        # conjugated projection T_{-r a/nu} P_G T_{r a/nu} reproduces g
        L, a, b, nu = 144, 12, 8, 2
        sys = FiniteGaborSystem(L, a, b, shifted_sum_window(L, a, nu))
        dual = canonical_dual(sys)
        PG = dual.span.projector()
        g = sys.window
        for r in range(nu):
            u_r = tf_shift(PG @ tf_shift(g, r * (a // nu), 0), (-r * (a // nu)) % L, 0)
            assert np.linalg.norm(u_r - g) < 1e-8


def dense_dft_vector_relation(sys, nu, rank_tol=1e-8):
    """The identity F_omega u = sqrt(nu) v with P and P_G as dense L x L
    matrices and every vector built by its own tf_shift."""
    L, a, b = sys.L, sys.a, sys.b
    g = sys.window
    dual = canonical_dual(sys, rank_tol)
    gamma, spanG = dual.gamma, dual.span
    constant = a * b / L
    P = cross_frame_operator(gamma, g, L // b, nu * (L // a)) / constant
    PG = spanG.projector()

    v = []
    u = []
    for s in range(nu):
        x = P @ tf_shift(g, 0, s * (L // a))
        v.append(tf_shift(x, 0, (-s * (L // a)) % L))
        y = PG @ tf_shift(g, s * (a // nu), 0)
        u.append(tf_shift(y, (-s * (a // nu)) % L, 0))
    omega = np.exp(2j * np.pi / nu)
    Fu = [
        sum(omega ** (s * r) * u[r] for r in range(nu)) / np.sqrt(nu)
        for s in range(nu)
    ]
    num = np.sqrt(sum(np.linalg.norm(Fu[s] - np.sqrt(nu) * v[s]) ** 2 for s in range(nu)))
    den = np.sqrt(sum(np.linalg.norm(x) ** 2 for x in u))
    return float(num / den)


@st.composite
def systems_with_nu(draw):
    sys = draw(fibred_systems().filter(lambda s: s.a > 1))
    return sys, draw(st.sampled_from([nu for nu in range(2, sys.a + 1) if sys.a % nu == 0]))


@settings(max_examples=100, deadline=None)
@given(systems_with_nu())
def test_dft_vector_relation_matches_dense_oracle(case):
    """The identity holds for every system, so both residuals are rounding:
    of order L eps kappa, the errors of S^+ read through P and P_G."""
    sys, nu = case
    lam = np.linalg.eigvalsh(frame_operator_direct(sys))
    kappa = lam[-1] / lam[lam > 1e-8 * lam[-1]][0]
    err = 10 * sys.L * np.finfo(float).eps * kappa
    assert dense_dft_vector_relation(sys, nu) <= err
    assert dft_vector_relation(sys, nu) <= err


def dense_completeness_spectrum(sys, v1, v2):
    """Singular values of the L x |H| matrix of the pi(z) g, z in the group H
    that v1 and v2 generate, each built by its own tf_shift."""
    L = sys.L
    pts = set()
    for j in range(L):
        base = ((j * v1[0]) % L, (j * v1[1]) % L)
        for k in range(L):
            pts.add(((base[0] + k * v2[0]) % L, (base[1] + k * v2[1]) % L))
    cols = np.array([tf_shift(sys.window, t, m) for (t, m) in sorted(pts)]).T
    return np.linalg.svd(cols, compute_uv=False)


@st.composite
def shift_pairs(draw):
    """A random, short-support or periodic window at L <= 36 and two shifts,
    often on a coarse sublattice, so both verdicts occur."""
    L = draw(st.integers(4, 36))
    kind = draw(st.sampled_from(("random", "short", "periodic")))
    g = fibre_window(L, "random" if kind == "periodic" else kind, draw(st.integers(0, 2**32 - 1)))
    if kind == "periodic":
        p = draw(st.sampled_from([p for p in range(1, L + 1) if L % p == 0]))
        g = np.tile(g[:p], L // p)
    step = draw(st.sampled_from([s for s in range(1, L + 1) if L % s == 0]))
    v1 = (step * draw(st.integers(-L, L)), step * draw(st.integers(-L, L)))
    v2 = (step * draw(st.integers(-L, L)), step * draw(st.integers(-L, L)))
    assume(v1[0] * v2[1] != v1[1] * v2[0])
    return FiniteGaborSystem(L, L, L, g), v1, v2


def parity_window(L, seed):
    """Random window whose odd samples are 1e-12 of the even ones."""
    return fibre_window(L, "random", seed) * np.where(np.arange(L) % 2, 1e-12, 1.0)


@settings(max_examples=150, deadline=None)
@given(shift_pairs())
# d = 4, L/d = 2: the odd fibre block falls wholly below the global cut
@example((FiniteGaborSystem(8, 8, 8, parity_window(8, 4)), (2, 0), (0, 2)))
def test_small_shift_completeness_matches_dense_oracle(case):
    sys, v1, v2 = case
    s = dense_completeness_spectrum(sys, v1, v2)
    cut = 1e-8 * s[0]
    # a singular value within a factor 10 of the cut may fall either side of it
    if np.all((s < cut / 10) | (s > 10 * cut)):
        assert small_shift_completeness(sys, v1, v2) == (np.sum(s > cut) == sys.L)


class TestSmallShiftCompleteness:
    def test_full_lattice_spans(self):
        L = 60
        sys = FiniteGaborSystem(L, 12, 12, periodized_gaussian(L, np.pi))
        assert small_shift_completeness(sys, (1, 0), (0, 1))

    @pytest.mark.parametrize("rank_tol", [0.0, 1.0, 2.0, np.inf, np.nan])
    def test_rank_tol_outside_unit_interval_rejected(self, rank_tol):
        # rank_tol >= 1 keeps no singular value and reported "incomplete"
        with pytest.raises(InvalidParameter):
            small_shift_completeness(gaussian_system(12, 4, 4), (1, 0), (0, 1), rank_tol)

    def test_collinear_rejected(self):
        sys = gaussian_system()
        with pytest.raises(DegenerateInput):
            small_shift_completeness(sys, (1, 0), (2, 0))

    @pytest.mark.parametrize(
        "v1, v2",
        [
            ((1.5, 0), (0, 1.9)),  # truncated to (1, 0), (0, 1): "complete"
            ((0.5, 0), (0, 0.5)),  # truncated to (0, 0), (0, 0): "collinear"
        ],
    )
    def test_non_integral_shifts_rejected(self, v1, v2):
        sys = FiniteGaborSystem(60, 12, 12, periodized_gaussian(60, np.pi))
        with pytest.raises(ValueError, match="integer pairs"):
            small_shift_completeness(sys, v1, v2)

    def test_coarse_sublattice_with_deficient_window_fails(self):
        L = 16
        g = np.zeros(L, dtype=complex)
        g[: L // 2] = 1.0 + np.arange(L // 2)
        sys = FiniteGaborSystem(L, 8, 8, g)
        assert not small_shift_completeness(sys, (8, 0), (0, 8))

    def test_all_shifts_stay_small(self):
        # H is all of Z_L^2: its L^2 columns of length L alone take 13.5 MiB
        sys = gaussian_system(96, 12, 12)
        tracemalloc.start()
        try:
            assert small_shift_completeness(sys, (1, 0), (0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestGaussianScenario:
    def test_reference_run_matches_expected_pattern(self):
        rep = gaussian_corollary_scenario(120, 12, 12, np.pi, 2, 4)
        assert rep.frame.is_riesz_sequence
        assert rep.criteria.verdict == "all_fail"
        assert rep.scan.verdict == "subset_of_refined_lattice"
        assert rep.scan.verdict_m == 1
        assert rep.matches_expectations()
        assert rep.biorthogonality_residual < 1e-8
        assert not rep.poorly_conditioned

    def test_orthogonality_table_nonvanishing(self):
        # the finite negative case: entries off the nu-columns do not vanish
        rep = gaussian_corollary_scenario(120, 12, 12, np.pi, 2, 4)
        assert rep.criteria.adjoint_inner_products[:, 1::2].max() > 1e-3

    def test_degenerate_width_flags_conditioning(self):
        rep = gaussian_corollary_scenario(120, 12, 12, 1e-9, 2, 4)
        assert rep.poorly_conditioned

    def test_oversampled_rejected(self):
        with pytest.raises(NotUndersampled):
            gaussian_corollary_scenario(120, 10, 12, np.pi, 2, 2)

    def test_refinement_contract(self):
        with pytest.raises(InvalidRefinement):
            gaussian_corollary_scenario(120, 12, 12, np.pi, 2, 5)


@pytest.mark.parametrize(
    "args",
    [(60, 10, 10, np.pi, 2, 2), (120, 12, 12, np.pi, 2, 4), (72, 12, 12, 0.3, 3, 6),
     (120, 12, 12, np.pi, 2, 4, 1e-2), (48, 8, 8, 20.0, 2, 4, 0.5)],
)
def test_expectations_match_the_set_comparison(args):
    """matches_expectations reads the class table; the detected points give the same."""
    rep = gaussian_corollary_scenario(*args)
    scan, crit = rep.scan, rep.criteria
    expected = (
        rep.frame.is_riesz_sequence
        and (scan.verdict, scan.verdict_m) == ("subset_of_refined_lattice", 1)
        and set(scan.invariant_set) == set(scan.lattice_points)
        and crit.verdict == "all_fail"
        and crit.verdict_consistent
    )
    assert rep.matches_expectations() == expected


class TestInvarianceTransport:
    def test_dft_transport_maps_invariant_set(self):
        # finite version of the invariant-set transformation law, at even L
        L, a, b = 36, 6, 6
        sys = FiniteGaborSystem(L, a, b, periodic_window(L, 3))
        rep = scan_invariance(sys, refinement=2)
        op = metaplectic_from_generators([[0, -1], [1, 0]], L)
        moved = transport_system(op, sys)
        assert isinstance(moved, FiniteGaborSystem)
        rep2 = scan_invariance(moved, refinement=2)
        mapped = {
            tuple(int(x) % L for x in op.matrix @ np.array(p))
            for p in rep.invariant_set
        }
        assert mapped == set(rep2.invariant_set)
        for p in mapped:
            assert rep2.residual_of(p) < 10 * rep.tol


G9 = np.ones(9)
UNIT = SeparableLattice(1, 1)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: FiniteGaborSystem(9, 4.5, 3, G9), InvalidLattice),
        (lambda: scan_invariance(gaussian_system(), 1.5), InvalidRefinement),
        (lambda: criteria_engine(gaussian_system(20, 10, 4), 2.5), InvalidNu),
        (lambda: dft_vector_relation(gaussian_system(20, 10, 4), 2.5), InvalidNu),
        (lambda: support_space(periodized_gaussian(120, np.pi), 1.5), InvalidLattice),
        (lambda: janssen_representation(G9, G9, 4.5, 3), InvalidLattice),
        (lambda: cross_frame_operator(G9, G9, 4.5, 3), InvalidLattice),
        (lambda: ExcludedResidueProduct(1, 1, 2.5), InvalidModulus),
        (lambda: omega_spec(1, 1, 2.5), InvalidModulus),
        (lambda: omega_density_formula(1, 1, 2.5), InvalidModulus),
        (lambda: equidistribution_diagnostic((1.0, 2**0.5), UNIT, 0.6, 2.5), ValueError),
        (lambda: lower_density_empirical(omega_spec(1.5, 5 / 7, 2), [3.0], 2.5), ValueError),
        (lambda: periodized_gaussian(12.5, np.pi), InvalidParameter),
        (lambda: metaplectic_from_generators([[1, 1], [0, 1]], 7.5), UnsupportedLength),
        (lambda: rho_operator(7.5, 1, 1), InvalidParameter),
        (lambda: reduce_invariant_shift(1, 1, 1.5, 2, 5), ValueError),
        (lambda: reduce_invariant_shift(1, 1, 1, 2, 7.5), InvalidOrder),
        (lambda: coset_decomposition(UNIT, 2.5), InvalidIndex),
        (lambda: order_in_lattice(("1/2", "1/3"), UNIT.as_lattice(), 2.5), ValueError),
    ],
    ids=[
        "system", "scan", "criteria", "dft-relation", "support", "janssen", "cross-frame",
        "product", "omega", "omega-formula", "equidistribution", "probe-grid", "gaussian",
        "metaplectic", "rho", "reduce-r", "reduce-m", "coset", "order",
    ],
)
def test_non_integral_parameters_raise_typed_errors(call, error):
    # each value divides the number it is checked against (9 % 4.5 == 0, 12 % 1.5 == 0, ...)
    # or passes its range check; truncated, 2.5 would count, sample or reduce as 2
    with pytest.raises(error):
        call()


def test_integral_floats_and_numpy_ints_read_as_ints():
    g = periodized_gaussian(12, np.pi)
    sys = FiniteGaborSystem(12, 4.0, np.int64(3), g)
    assert (type(sys.a), type(sys.b), sys.a, sys.b) == (int, int, 4, 3)
    s = gaussian_system()
    assert criteria_engine(s, 2.0).to_json_dict() == criteria_engine(s, 2).to_json_dict()
    assert dft_vector_relation(s, np.int64(2)) == dft_vector_relation(s, 2)
    assert scan_invariance(s, 4.0).to_json_dict() == scan_invariance(s, 4).to_json_dict()
    S_float, S_int = janssen_representation(g, g, 4.0, 3)[0], janssen_representation(g, g, 4, 3)[0]
    assert np.array_equal(S_float, S_int)
    assert np.array_equal(cross_frame_operator(g, g, 4.0, 3), cross_frame_operator(g, g, 4, 3))
    assert np.array_equal(support_space(g, 4.0)[1], support_space(g, 4)[1])
    assert np.array_equal(periodized_gaussian(12.0, np.pi), g)
    B = [[1, 1], [0, 1]]
    U_float, U_int = metaplectic_from_generators(B, 7.0), metaplectic_from_generators(B, 7)
    assert np.array_equal(U_float.unitary, U_int.unitary) and type(U_float.L) is int
    product = ExcludedResidueProduct(1, 1, 3.0)
    assert type(product.nu) is int and product.nu == 3
    red = reduce_invariant_shift(1, 1, 1, 2, 9.0).to_json_dict()
    assert red == reduce_invariant_shift(1, 1, np.int64(1), 2, 9).to_json_dict()
