"""Differential tests: the criteria engine against a dense per-slice oracle.

The engine factors each system once and derives every adjoint slice from
the first; the oracle below builds and factors every slice on its own, the
way the criteria read in the paper.  Inputs are the three builtin windows
of the CLI moved by a random time-frequency shift and phase, which maps a
system to a unitarily equivalent one.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaborinv.cli import _builtin_window
from gaborinv.gabor import (
    FiniteGaborSystem,
    cross_frame_operator,
    orthonormal_range,
    periodized_gaussian,
    shift_operator,
    tf_shift,
)
from gaborinv.invariance import (
    criteria_engine,
    gaussian_corollary_scenario,
    membership_residual,
    scan_invariance,
)

RANK_TOL, TOL = 1e-8, 1e-6
WINDOWS = ("gaussian", "gaussian-sum", "periodic-gaussian")  # the CLI's builtins


def builtin_window(L, a, b, nu, name):
    return _builtin_window(name, L, a, b, nu, math.pi)


def numerical_rank(A, rank_tol):
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0


def divisors(n):
    return [d for d in range(2, n) if n % d == 0]


@st.composite
def shifted_systems(draw):
    nu = draw(st.sampled_from((2, 3, 4)))
    L = draw(st.sampled_from([L for L in range(12, 73) if L % nu == 0]))
    a = draw(st.sampled_from([d for d in divisors(L) if d % nu == 0]))
    b = draw(st.sampled_from([d for d in divisors(L) if 4 * a * d >= L]))  # N*M <= 4L
    name = draw(st.sampled_from(WINDOWS))
    t, m = draw(st.integers(0, L - 1)), draw(st.integers(0, L - 1))
    phase = np.exp(2j * np.pi * draw(st.floats(0, 1)))
    w = phase * tf_shift(builtin_window(L, a, b, nu, name), t, m)
    return FiniteGaborSystem(L, a, b, w), nu


def periodic_window(L, p, seed):
    """Random window of period p: its slice blocks are rank-deficient."""
    rng = np.random.default_rng(seed)
    return np.tile(rng.normal(size=p) + 1j * rng.normal(size=p), L // p)


def parity_window(L):
    """Gaussian on the even samples, 1e-9 noise on the odd ones.  With a and
    L/b even the odd fibres fall wholly below the global rank cut."""
    odd = np.arange(L) % 2
    return periodized_gaussian(L, math.pi) * (1 - odd) + 1e-9 * odd * periodic_window(L, L, 2)


def smallest_angle(QA, QB):
    """Smallest principal angle between two orthonormal bases: from the
    smallest sine, the singular values of QB - QA QA^H QB, when its cosine^2
    is at least 1/2, else from the largest cosine."""
    C = QA.conj().T @ QB
    cos_max = np.linalg.svd(C, compute_uv=False)[0]
    if cos_max**2 >= 0.5:
        return np.arcsin(min(1.0, np.linalg.svd(QB - QA @ C, compute_uv=False)[QB.shape[1] - 1]))
    return np.arccos(min(1.0, cos_max))


def dense_oracle(sys, nu):
    """Every criteria quantity from its defining formula, one slice at a time."""
    L, a, b, g = sys.L, sys.a, sys.b, sys.window
    D = np.array([tf_shift(g, k * a, l * b) for l in range(L // b) for k in range(L // a)]).T
    # S^+ = (D^+)^H D^+ from the SVD of D, whose singular values carry rounding
    # relative to sqrt(kappa) where the eigenvalues of S = D D^H carry kappa.
    # The projection residuals amplify an error in S gamma = g by far more
    # than kappa, so one refinement step makes it hold to rounding.
    U, sv, _ = np.linalg.svd(D, full_matrices=False)
    lam = sv**2  # the nonzero spectrum of S, descending
    keep = lam > RANK_TOL * lam[0]
    Uk = U[:, keep]
    gamma = (Uk / lam[keep]) @ (Uk.conj().T @ g)  # S^+ g
    gamma += (Uk / lam[keep]) @ (Uk.conj().T @ (g - D @ (D.conj().T @ gamma)))
    gram = np.linalg.eigvalsh(D.conj().T @ D)
    shifted = tf_shift(g, a // nu, 0)
    res_i = np.linalg.norm(shifted - Uk @ (Uk.conj().T @ shifted)) / np.linalg.norm(g)

    P = cross_frame_operator(gamma, g, L // b, nu * (L // a)) / (a * b / L)
    res_ii = [
        np.linalg.norm(P @ tf_shift(g, 0, s * (L // a)) - (g if s == 0 else 0))
        / np.linalg.norm(g)
        for s in range(nu)
    ]

    mats = [
        np.array([
            tf_shift(g, k * (L // b), ((l * nu + s) * (L // a)) % L)
            for k in range(b)
            for l in range(a // nu)
        ]).T
        for s in range(nu)
    ]
    ranks = [numerical_rank(A, RANK_TOL) for A in mats]
    sv = np.linalg.svd(mats[0], compute_uv=False)
    kept_sv = sv[sv > RANK_TOL * sv[0]]
    bases = [orthonormal_range(A, RANK_TOL) for A in mats]
    Q = [B.blocks[0][:, :B.rank] for B in bases]
    # the direct-sum margin: the smallest of the nu * rank singular values of the
    # stacked orthonormal slice bases, 0 if they cannot all fit in C^L, 1 if empty
    n = sum(B.rank for B in bases)
    sigma_min = (
        1.0 if n == 0 else 0.0 if n > L else np.linalg.svd(np.hstack(Q), compute_uv=False)[n - 1]
    )

    table = np.array([
        [abs(np.vdot(tf_shift(gamma, k * (L // b), l * (L // a)), g)) for l in range(a)]
        for k in range(b)
    ])
    PK = orthonormal_range(np.hstack(mats), RANK_TOL).projector()
    Ps = []
    for s in range(nu):
        Ms = shift_operator(L, 0, s * (L // a))
        Ps.append(Ms @ P @ Ms.conj().T)
    proj = {
        "idempotence": max(np.linalg.norm(p @ p - p) for p in Ps),
        "mutual_annihilation": max(
            np.linalg.norm(Ps[s] @ Ps[r]) for s in range(nu) for r in range(nu) if r != s
        ),
        "sum_equals_PK": np.linalg.norm(sum(Ps) - PK),
        "vanish_on_K_perp": max(np.linalg.norm(p @ (np.eye(L) - PK)) for p in Ps),
    }
    return {
        "res_i": res_i,
        "res_ii": res_ii,
        "rank_sum": sum(ranks),
        "joint_rank": numerical_rank(np.hstack(mats), RANK_TOL),
        "sigma_min": sigma_min,
        # the smallest principal angle between L_0 and L_1, asserted for nu = 2
        "gap": smallest_angle(Q[0], Q[1]) if n else np.pi / 2,
        "table": table,
        "res_iv": table[:, np.arange(a) % nu != 0].max(),
        "proj": proj,
        "gamma_l0": membership_residual(bases[0], gamma),
        "frame": (lam[keep][-1], lam[0], int(keep.sum()), bool(gram[0] > RANK_TOL * gram[-1])),
        "kappa": max(lam[0] / lam[keep][-1], kept_sv[0] / kept_sv[-1] if kept_sv.size else 1.0),
    }


@settings(max_examples=100, deadline=None)
@given(shifted_systems())
@example((FiniteGaborSystem(28, 4, 7, periodic_window(28, 4, 0)), 2))
@example((FiniteGaborSystem(27, 9, 3, periodic_window(27, 9, 1)), 3))
@example((FiniteGaborSystem(48, 12, 8, periodic_window(48, 3, 3)), 4))
@example((FiniteGaborSystem(24, 4, 12, parity_window(24)), 2))
# the large-L benchmark systems at quarter size; the Gaussian's Walnut blocks fall in 2 orbits
@example((FiniteGaborSystem(240, 24, 24, builtin_window(240, 24, 24, 2, "gaussian")), 2))
@example((FiniteGaborSystem(240, 20, 24, builtin_window(240, 20, 24, 2, "periodic-gaussian")), 2))
# random windows whose slices sum directly but not orthogonally: 0 < sigma_min < 1
@example((FiniteGaborSystem(60, 6, 3, periodic_window(60, 60, 4)), 2))
@example((FiniteGaborSystem(60, 6, 3, periodic_window(60, 60, 5)), 3))
@example((FiniteGaborSystem(48, 8, 4, periodic_window(48, 48, 6)), 4))
def test_criteria_engine_matches_dense_oracle(case):
    sys, nu = case
    rep = criteria_engine(sys, nu)
    ref = dense_oracle(sys, nu)
    # Two exact formulas for one number differ by rounding amplified by the
    # conditioning (of S for what is read through S^+, of A_0 for the slice
    # basis), so 1e-10 holds up to kappa = 1e5 and scales with kappa beyond.
    tol = max(1e-10, 1e-15 * ref["kappa"])
    close = dict(abs=tol, rel=tol)

    assert (rep.rank_sum, rep.joint_rank) == (ref["rank_sum"], ref["joint_rank"])
    holds = {
        "i": ref["res_i"] < TOL,
        "ii": max(ref["res_ii"]) < TOL,
        "iii": ref["rank_sum"] == ref["joint_rank"],
        "iv": ref["res_iv"] < TOL,
    }
    assert rep.holds == holds
    assert rep.projections_ok == all(v < TOL for v in ref["proj"].values())
    assert (rep.frame.rank, rep.frame.is_riesz_sequence) == ref["frame"][2:]
    assert (rep.frame.lower, rep.frame.upper) == pytest.approx(ref["frame"][:2], **close)

    assert rep.res_i == pytest.approx(ref["res_i"], **close)
    assert rep.res_ii == pytest.approx(tuple(ref["res_ii"]), **close)
    assert rep.res_iv == pytest.approx(ref["res_iv"], **close)
    assert rep.gamma_l0_residual == pytest.approx(ref["gamma_l0"], **close)
    np.testing.assert_allclose(rep.adjoint_inner_products, ref["table"], rtol=tol, atol=tol)
    for key, value in ref["proj"].items():
        assert rep.projection_residuals[key] == pytest.approx(value, **close), key
    assert rep.sigma_min == pytest.approx(ref["sigma_min"], **close)
    if nu == 2:
        assert rep.min_principal_gap == pytest.approx(ref["gap"], **close)
    else:
        assert rep.min_principal_gap is None


@pytest.mark.parametrize("L, a, b", [(120, 12, 12), (72, 12, 9)])
def test_gaussian_scenario_matches_dense_oracle(L, a, b):
    rep = gaussian_corollary_scenario(L, a, b, math.pi, 2, 1)
    g = periodized_gaussian(L, math.pi)
    ref = dense_oracle(FiniteGaborSystem(L, a, b, g), 2)
    np.testing.assert_allclose(
        rep.criteria.adjoint_inner_products, ref["table"], rtol=1e-10, atol=1e-10
    )
    D = np.array([tf_shift(g, k * a, l * b) for l in range(L // b) for k in range(L // a)]).T
    gram = np.linalg.eigvalsh(D.conj().T @ D)
    assert rep.condition_number == pytest.approx(gram[-1] / gram[0], rel=1e-10)
    assert tuple(rep.frame)[2:] == ref["frame"][2:]


@settings(max_examples=60, deadline=None)
@given(shifted_systems().filter(lambda case: case[0].b % case[1] == 0))
def test_criterion_i_agrees_with_the_scan(case):
    """For nu | gcd(a, b) the scan with refinement nu tests T_{a/nu} too: criterion
    (i) holds iff (a/nu, 0) is detected, wherever res_i is decided by a factor 10."""
    sys, nu = case
    rep = criteria_engine(sys, nu, TOL)
    assume(not TOL / 10 <= rep.res_i <= 10 * TOL)
    detected = (sys.a // nu, 0) in scan_invariance(sys, nu, TOL).invariant_set
    assert rep.holds["i"] == detected
