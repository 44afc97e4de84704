"""Detection of time-frequency shift invariance and the duality criteria.

Covers: membership residuals against a Gabor span, the refined-grid
invariance scan with its dichotomy verdict, additive-group closure of the
detected set, the four equivalent duality criteria with the associated
(in general non-orthogonal) projections, the DFT-vector identity behind
the criteria proof, completeness from two small independent invariant
shifts, and the full Gaussian scenario pipeline.

Criterion (iii) is decided by rank additivity.  Its margin sigma_min, the
smallest singular value of the stacked slice bases, is read from the rows of
the slice basis restricted to each class j mod nu, one small values-only SVD;
for nu = 2 it gives the smallest principal angle between the two slices.

Tolerance discipline: the scan classifies with `tol` (default 1e-6) and a
mandatory gap check -- every residual must fall below tol or above
1000*tol, otherwise its verdict is "inconclusive" instead of a silent
classification; the criteria engine decides with a bare `< tol`, no gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import Optional

import numpy as np

from .errors import (
    DEFAULT_TOL,
    DegenerateInput,
    InvalidNu,
    InvalidParameter,
    InvalidRefinement,
    NotUndersampled,
    ZeroInput,
    check_tolerance,
    exact_int,
    exact_ints,
)
from .gabor import (
    DEFAULT_RANK_TOL,
    FiniteGaborSystem,
    FrameBounds,
    SubspaceBasis,
    SystemAnalysis,
    analyze_system,
    fibre_singular_values,
    fibre_svd,
    periodized_gaussian,
    tf_inner_products,
    tf_shift,
    tf_shifts,
    walnut_fibres,
)

GAP_FACTOR = 1e3
CONDITIONING_LIMIT = 1e8

__all__ = [
    "InvarianceReport",
    "CriteriaReport",
    "GaussianScenarioReport",
    "membership_residual",
    "scan_invariance",
    "group_closure_check",
    "criteria_engine",
    "dft_vector_relation",
    "small_shift_completeness",
    "gaussian_corollary_scenario",
]


def membership_residual(span: SubspaceBasis, f: np.ndarray) -> float:
    """Relative distance ||f - P_span f|| / ||f|| of f from the subspace."""
    f = np.asarray(f, dtype=complex)
    nf = np.linalg.norm(f)
    if nf == 0:
        raise ZeroInput("membership residual needs a nonzero signal")
    return float(np.linalg.norm(f - span.project(f)) / nf)


@dataclass(frozen=True)
class InvarianceReport:
    """Class table of a grid scan plus the dichotomy verdict.

    The residual on the grid (a/r)Z x (b/r)Z mod L, r the refinement, is
    Lambda-periodic: `table[i, j]` is that of the class (i a/r, j b/r) + Lambda,
    and `tested_points`, `residuals`, `lattice_points` are views read from it.
    `verdict` is "subset_of_refined_lattice" (`verdict_m` the smallest m
    dividing r with `invariant_set` in (1/m) Lambda), "spans_everything", or
    "inconclusive".
    """

    L: int
    a: int
    b: int
    tol: float
    invariant_set: tuple  # detected (t, m) pairs
    verdict: str
    verdict_m: Optional[int]
    refinement: int
    table: np.ndarray = field(repr=False, compare=False)  # (r, r) class residuals

    def _class_of(self, points) -> tuple:
        """Classes (i mod r, j mod r) of grid points (i a/r, j b/r), one (t, m) pair
        or an (n, 2) array of them; InvalidParameter if any lies off the grid."""
        p, step = np.asarray(points), (self.a // self.refinement, self.b // self.refinement)
        inside = p.shape[-1:] == (2,) and np.all((0 <= p) & (p < self.L))
        q = p.astype(int) if inside else p
        if not (inside and np.all(q == p) and not np.any(q % step)):
            raise InvalidParameter(f"{points} lies off the scanned grid")
        return tuple((q // step % self.refinement).T)

    def residual_of(self, point) -> float:
        return float(self.table[self._class_of(point)])

    @property
    def tested_points(self) -> tuple:
        """Every grid point, t-major (built as a list: tuple() of a generator is slower)."""
        st, sf = self.a // self.refinement, self.b // self.refinement
        return tuple([(t, m) for t in range(0, self.L, st) for m in range(0, self.L, sf)])

    @property
    def residuals(self) -> tuple:
        """Residuals parallel to `tested_points`: the table tiled over Lambda."""
        return tuple(np.tile(self.table, (self.L // self.a, self.L // self.b)).ravel().tolist())

    @property
    def lattice_points(self) -> tuple:
        """The Lambda points among `tested_points`, in their order."""
        return tuple((t, m) for t in range(0, self.L, self.a) for m in range(0, self.L, self.b))

    def to_json_dict(self) -> dict:
        return {
            "tested_points": [list(p) for p in self.tested_points],
            "residuals": list(self.residuals),
            "tol": self.tol,
            "invariant_set": [list(p) for p in self.invariant_set],
            "verdict": self.verdict,
            "verdict_m": self.verdict_m,
            "refinement": self.refinement,
        }


def scan_invariance(
    sys: FiniteGaborSystem,
    refinement: int,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> InvarianceReport:
    """Scan the grid (a/refinement)Z x (b/refinement)Z for invariant shifts.

    A grid point z is detected iff pi(z) g stays in the span of the system.
    Verdicts: detected set equal to the Lambda points -> m = 1; a strict
    superset inside (1/m) Lambda -> the smallest such m dividing the
    refinement; everything invariant with a full-dimensional span ->
    "spans_everything"; any residual inside the [tol, 1000*tol] gray band ->
    "inconclusive".
    """
    an = analyze_system(sys, rank_tol)
    check_tolerance("tol", tol)
    g = sys.window
    d = gcd(sys.a, sys.b)
    message = f"refinement must divide gcd(a, b) = {d}, got {refinement}"
    r = exact_int(refinement, InvalidRefinement, message, 1, d)
    # V is pi(Lambda)-invariant, so P_V commutes with pi(Lambda) and the residual of
    # pi(z) g is Lambda-periodic: one per class (i a/r, j b/r) + Lambda, i, j < r.
    L, st, sf = sys.L, sys.a // r, sys.b // r
    cols = tf_shifts(g, np.repeat(np.arange(r) * st, r), np.tile(np.arange(r) * sf, r))
    cols -= an.dual.span.project(cols)
    table = (np.linalg.norm(cols, axis=0) / np.linalg.norm(g)).reshape(r, r)

    if np.any((table >= tol) & (table <= GAP_FACTOR * tol)):
        verdict, m = "inconclusive", None
    elif np.all(table < tol) and an.dual.span.rank == L:
        verdict, m = "spans_everything", None
    else:
        verdict = "subset_of_refined_lattice"
        m = r // gcd(r, *np.argwhere(table < tol).ravel().tolist())
    hit = np.tile(table < tol, (L // sys.a, L // sys.b))  # the grid, t-major like `tested_points`
    detected = tuple(
        [(i * st, j * sf) for i, row in enumerate(hit) for j in np.flatnonzero(row).tolist()]
    )
    return InvarianceReport(L, sys.a, sys.b, tol, detected, verdict, m, r, table)


def group_closure_check(
    report: InvarianceReport, sys: FiniteGaborSystem, tol: float = DEFAULT_TOL
) -> bool:
    """Verify the detected set is closed under negation and addition mod L.

    On the class table, Z_r x Z_r: for all classes c, c' of detected points,
    -c and c + c' must have residual below 10*tol.  False when `sys` is not
    the scanned grid or a detected point lies off it.
    """
    check_tolerance("tol", tol)
    if (sys.L, sys.a, sys.b) != (report.L, report.a, report.b):
        return False
    r, ok = report.refinement, report.table < 10 * tol
    det = np.zeros((r, r), bool)
    try:  # as floats, exact below 2^53, so that (1.5, 0) stays off the grid
        flat = np.fromiter(chain.from_iterable(report.invariant_set), float)
        det[report._class_of(flat.reshape(len(report.invariant_set), 2))] = True
    except ValueError:
        return False
    i, j = np.nonzero(det)
    return bool(ok[-i % r, -j % r].all() and ok[(i[:, None] + i) % r, (j[:, None] + j) % r].all())


@dataclass(frozen=True)
class CriteriaReport:
    """Residuals and verdicts for the four equivalent duality criteria.

    res_i    : distance of T_{a/nu} g from the span.
    res_ii   : ||P M_{s L/a} g - delta_{s,0} g|| / ||g||, s = 0..nu-1, with
               P = constant^{-1} S_{gamma,g} over steps (L/b, nu L/a).
    rank_sum / joint_rank / sigma_min / min_principal_gap : the direct-sum
               test for the adjoint subspaces L_s.  Rank additivity is the
               criterion; sigma_min, the smallest singular value of the stacked
               orthonormal slice bases, is its margin: 0 when the sum is not
               direct, 1 when the slices are mutually orthogonal.  For nu = 2
               min_principal_gap is the smallest principal angle between L_0
               and L_1, 2 arcsin(sigma_min / sqrt 2), in radians; None for nu > 2.
    res_iv   : max |<pi(k L/b, l L/a) gamma, g>| over l not divisible by nu.
    projection_residuals : idempotence, mutual annihilation, sum vs P_K,
               and vanishing on the orthocomplement of K (Frobenius norms).
    adjoint_inner_products : |<pi(k L/b, l L/a) gamma, g>| as a (b, a)
               array indexed [k, l]; not part of `to_json_dict`.
    """

    nu: int
    tol: float
    constant: float
    res_i: float
    res_ii: tuple
    rank_sum: int
    joint_rank: int
    sigma_min: float
    min_principal_gap: Optional[float]
    res_iv: float
    projection_residuals: dict
    projections_ok: bool
    holds: dict
    verdict: str
    verdict_consistent: bool
    gamma_l0_residual: float
    frame: FrameBounds
    adjoint_inner_products: np.ndarray = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "tol": self.tol,
            "constant": self.constant,
            "res_i": self.res_i,
            "res_ii": list(self.res_ii),
            "res_iii": {
                "rank_sum": self.rank_sum,
                "joint_rank": self.joint_rank,
                "sigma_min": self.sigma_min,
                "min_principal_gap": self.min_principal_gap,
            },
            "res_iv": self.res_iv,
            "projection_residuals": dict(self.projection_residuals),
            "projections_ok": self.projections_ok,
            "holds": dict(self.holds),
            "verdict": self.verdict,
            "verdict_consistent": self.verdict_consistent,
            "gamma_l0_residual": self.gamma_l0_residual,
            "frame_bounds": self.frame.to_json_dict(),
        }


def criteria_engine(
    sys: FiniteGaborSystem,
    nu: int,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> CriteriaReport:
    """Evaluate the four equivalent characterizations of T_{a/nu} invariance.

    (i)   T_{a/nu} g lies in the span of the system;
    (ii)  the normalized cross-frame operator P over steps (L/b, nu L/a)
          reproduces g and kills M_{s L/a} g for s = 1..nu-1;
    (iii) the adjoint space K splits as the direct (rank-additive) sum of
          the slices L_s;
    (iv)  the adjoint-lattice inner products <pi(k L/b, l L/a) gamma, g>
          vanish for all l outside nu Z.

    Also verifies the projection algebra of P_s = M_{s L/a} P M_{-s L/a}
    (idempotence, mutual annihilation, summing to the orthogonal projection
    onto K, vanishing on K^perp).  The normalization constant a*b/L (the
    finite alpha*beta) is recorded in the report.
    """
    an = analyze_system(sys, rank_tol)
    check_tolerance("tol", tol)
    nu, P, d, images = _slice_blocks(an, nu)  # (ii), (iii) and the P_s read these
    g = sys.window
    L, a, b = sys.L, sys.a, sys.b
    gamma = an.dual.gamma
    res_i = membership_residual(an.dual.span, tf_shift(g, a // nu, 0))
    inner = np.abs(tf_inner_products(g, gamma, L // b, L // a))
    res_iv = float(inner[:, np.arange(a) % nu != 0].max())

    images[0] -= g.reshape(d.shape[1], -1).T
    res_ii = [float(np.linalg.norm(x) / np.linalg.norm(g)) for x in images]

    # (iii)'s margin: d_s[j] depends on c = j mod nu only, so with its rows sorted by
    # class the stack [Q0_r, d_1 Q0_r, ...] is blockdiag(Q_{r,c}) (F_nu x I), F_nu/sqrt(nu)
    # unitary, and sigma_min = sqrt(nu) min_{r,c} sigma_{k_r}(Q_{r,c}) over the (L/a) x k_r
    # class rows Q_{r,c}: 0 when k_r > L/a.  A rolled block only permutes the classes.
    slice_fib = fibre_svd(g, L // b, d.shape[1])
    Q0_reps = slice_fib.range(rank_tol)
    Q0 = slice_fib.expand_basis(Q0_reps)
    live = Q0_reps.ranks > 0
    k = Q0_reps.ranks[live]
    by_class = Q0_reps.blocks[live, :, : k.max()].reshape(len(k), L // a, nu, -1).swapaxes(1, 2)
    sv = np.linalg.svd(by_class, compute_uv=False)
    s_k = sv[np.arange(len(k)), :, np.minimum(k, L // a) - 1] * (k <= L // a)[:, None]
    sigma_min = float(np.sqrt(nu) * s_k.min())
    # K is the adjoint system (L/b, L/a): its block r + c a/nu is the class
    # j = c mod nu of slice block r, so PK is class-diagonal and commutes with
    # every d_s.  Each identity of the P_s = d_s P d_s^* is then one of P:
    # P_s P_r = d_s (P d_{r-s} P) d_r^* and sum_s P_s = nu P on j1 = j2 mod nu.
    # Its blocks are the system's own, transposed and index-reversed (Walnut duality).
    adjoint_fib = an.fibres.adjoint()
    K = adjoint_fib.expand_basis(adjoint_fib.range(rank_tol))
    PKc = (K.blocks @ K.blocks.conj().swapaxes(1, 2)).reshape(nu, a // nu, L // a, L // a)
    PK = np.einsum("crjk,cd->rjckd", PKc, np.eye(nu)).reshape(P.shape)
    j = np.arange(d.shape[1]) % nu
    same_class = j[:, None] == j
    proj = {
        "idempotence": float(np.linalg.norm(P @ P - P)),
        "mutual_annihilation": max(float(np.linalg.norm((P * d[k]) @ P)) for k in range(1, nu)),
        "sum_equals_PK": float(np.linalg.norm(nu * (P * same_class) - PK)),
        "vanish_on_K_perp": float(np.linalg.norm(P - P @ PK)),
    }
    projections_ok = all(v < tol for v in proj.values())
    rank_sum, joint_rank = nu * Q0.rank, K.rank
    holds = {
        "i": res_i < tol,
        "ii": max(res_ii) < tol,
        "iii": rank_sum == joint_rank,
        "iv": res_iv < tol,
    }
    agree = len(set(holds.values())) == 1
    verdict = (
        "all_hold" if all(holds.values()) else "all_fail" if not any(holds.values()) else "mixed"
    )

    return CriteriaReport(
        nu=nu,
        tol=tol,
        constant=a * b / L,
        res_i=res_i,
        res_ii=tuple(res_ii),
        rank_sum=rank_sum,
        joint_rank=joint_rank,
        sigma_min=sigma_min,
        min_principal_gap=2 * float(np.arcsin(sigma_min / np.sqrt(2))) if nu == 2 else None,
        res_iv=res_iv,
        projection_residuals=proj,
        projections_ok=projections_ok,
        holds=holds,
        verdict=verdict,
        verdict_consistent=agree,
        gamma_l0_residual=membership_residual(Q0, gamma),
        frame=an.frame,
        adjoint_inner_products=inner,
    )


def _slice_blocks(an: SystemAnalysis, nu: int):
    """nu, read here (an int >= 2 dividing a), the blocks of P, the phases d and
    the fibres of P M_{s L/a} g on the a/nu Walnut fibres {r + j a/nu : j < n} of
    the slice L_0, the system (L/b, nu L/a).  On a fibre M_{s L/a} is the phase
    e^{2 pi i s r/a} (left out of the fibres of P M_{s L/a} g) times d_s[j] =
    exp(2 pi i s j / nu), so L_s has the blocks d_s Q_r and P_s the blocks d_s P_r d_s^*.
    """
    sys, g = an.system, an.system.window
    L, a, b = sys.L, sys.a, sys.b
    nu = exact_int(nu, InvalidNu, f"nu must be >= 2, got {nu}", 2)
    exact_int(nu, InvalidNu, f"nu must divide the time step a={a}, got {nu}", 1, a)
    n = nu * (L // a)
    W = walnut_fibres(g, L // b, n)
    P = (L / (nu * b)) * W @ walnut_fibres(an.dual.gamma, L // b, n).conj().swapaxes(1, 2)
    d = np.exp(2j * np.pi * np.outer(np.arange(nu), np.arange(n)) / nu)
    images = np.einsum("rij,srj->sri", P, d[:, None, :] * g.reshape(n, -1).T)
    return nu, P, d, images


def dft_vector_relation(
    sys: FiniteGaborSystem, nu: int, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Residual of the identity F_omega u = sqrt(nu) v.

    v_s = M_{-s L/a} P M_{s L/a} g and u_r = T_{-r a/nu} P_G T_{r a/nu} g,
    with F_omega the nu x nu unitary DFT, omega = exp(2 pi i / nu).  The
    identity is unconditional -- it holds whether or not the criteria do.
    """
    an = analyze_system(sys, rank_tol)
    nu, _, d, images = _slice_blocks(an, nu)
    L, shifts = sys.L, np.arange(nu) * (sys.a // nu)
    v = (d.conj()[:, None, :] * images).swapaxes(1, 2).reshape(nu, L)
    y = an.dual.span.project(tf_shifts(sys.window, shifts, 0))
    u = y[(np.arange(L)[:, None] + shifts) % L, np.arange(nu)].T
    Fu = np.sqrt(nu) * np.fft.ifft(u, axis=0)
    return float(np.linalg.norm(Fu - np.sqrt(nu) * v) / np.linalg.norm(u))


def small_shift_completeness(
    sys: FiniteGaborSystem,
    v1,
    v2,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> bool:
    """Does the group generated by two independent shifts span everything?

    H = {j v1 + k v2 mod L} contains dZ_L x dZ_L, d = gcd(det, L), so the
    pi(z) g, z in H, span what the system (d, d) spans with the windows pi(c) g
    for the n_cls = d / gcd(det/d, v1, v2, d) classes c = j v1 + k v2 of H mod d,
    j below the order o1 of v1 mod d and k < n_cls/o1.  The Walnut blocks of
    that union must keep L singular values above rank_tol * s_max.
    """
    check_tolerance("rank_tol", rank_tol)
    message = "v1 and v2 must be integer pairs"
    (x1, y1), (x2, y2) = exact_ints((v1, v2), (2, 2), InvalidParameter, message)
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise DegenerateInput(f"shift vectors {(x1, y1)}, {(x2, y2)} are collinear")
    L = sys.L
    d = gcd(det, L)
    n_cls = d // gcd(det // d, x1, y1, x2, y2, d)
    o1 = d // gcd(x1, y1, d)
    V = np.array([[x1 % d, x2 % d], [y1 % d, y2 % d]])
    t, m = V @ np.stack(np.divmod(np.arange(n_cls), n_cls // o1)) % d
    # one block per orbit, standing for (L/d)/G blocks each
    s = fibre_singular_values(tf_shifts(sys.window, t, m), d, d)
    return int(np.sum(s > rank_tol * s.max())) * (L // d) // len(s) == L


@dataclass(frozen=True)
class GaussianScenarioReport:
    """Full pipeline record for the undersampled Gaussian scenario."""

    L: int
    a: int
    b: int
    c: float
    nu: int
    refinement: int
    frame: FrameBounds
    criteria: CriteriaReport
    scan: InvarianceReport
    biorthogonality_residual: float
    condition_number: float
    poorly_conditioned: bool

    def matches_expectations(self) -> bool:
        """Riesz sequence, invariant set exactly Lambda, criteria all fail."""
        inv_is_lattice = set(self.scan.invariant_set) == set(self.scan.lattice_points)
        return (
            self.frame.is_riesz_sequence
            and self.scan.verdict == "subset_of_refined_lattice"
            and self.scan.verdict_m == 1
            and inv_is_lattice
            and self.criteria.verdict == "all_fail"
            and self.criteria.verdict_consistent
        )

    def to_json_dict(self) -> dict:
        return {
            "L": self.L,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "nu": self.nu,
            "refinement": self.refinement,
            "frame_bounds": self.frame.to_json_dict(),
            "criteria": self.criteria.to_json_dict(),
            "scan": self.scan.to_json_dict(),
            "biorthogonality_residual": self.biorthogonality_residual,
            "condition_number": self.condition_number,
            "poorly_conditioned": self.poorly_conditioned,
            "matches_expectations": self.matches_expectations(),
        }


def gaussian_corollary_scenario(
    L: int,
    a: int,
    b: int,
    c: float,
    nu: int,
    refinement: int,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GaussianScenarioReport:
    """Run the full negative-case pipeline for a Gaussian window.

    Requires a*b > L (the finite analogue of lattice density below one).
    Expected behavior: a Riesz sequence whose invariant set is exactly the
    lattice, with all four criteria failing consistently; the adjoint inner
    products |<pi(k L/b, l L/a) gamma, g>| of the criteria report do not
    vanish off the allowed columns in the finite negative case.
    """
    if a * b <= L:
        raise NotUndersampled(f"need a*b > L, got a*b = {a * b} <= L = {L}")
    g = periodized_gaussian(L, c)
    sys = FiniteGaborSystem(L, a, b, g)
    an = analyze_system(sys, rank_tol)
    crit = criteria_engine(sys, nu, tol, rank_tol)
    scan = scan_invariance(sys, refinement, tol, rank_tol)

    ips = tf_inner_products(an.dual.gamma, g, sys.a, sys.b)  # <gamma, pi(k a, l b) g>
    ips[0, 0] -= 1.0
    bio = float(np.abs(ips).max())

    # conditioning of the system itself: the full Gram spectrum, no truncation,
    # is the top N*M eigenvalues of S (N*M < L because a*b > L)
    smallest, largest = an.eigenvalues[-sys.n_time * sys.n_freq], an.eigenvalues[-1]
    cond = largest / smallest if smallest > 0 else np.inf
    return GaussianScenarioReport(
        L=sys.L,
        a=sys.a,
        b=sys.b,
        c=float(c),
        nu=crit.nu,
        refinement=scan.refinement,
        frame=an.frame,
        criteria=crit,
        scan=scan,
        biorthogonality_residual=bio,
        condition_number=float(cond),
        poorly_conditioned=bool(cond > CONDITIONING_LIMIT),
    )
