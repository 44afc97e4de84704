"""Detection of time-frequency shift invariance and the duality criteria.

Covers: membership residuals against a Gabor span, the refined-grid
invariance scan with its dichotomy verdict, additive-group closure of the
detected set, the four equivalent duality criteria with the associated
(in general non-orthogonal) projections, the DFT-vector identity behind
the criteria proof, completeness from two small independent invariant
shifts, and the full Gaussian scenario pipeline.

The criteria engine reads K, the adjoint system's span, from the system's
stored analysis and factors the slice L_0 inside K's kept columns: the rows
of class j mod nu of a slice block are an adjoint block.  That
one SVD gives L_0's basis and rank and criterion (iii)'s margin sigma_min, the
smallest singular value of the stacked slice bases (for nu = 2, the smallest
principal angle between the two slices); (iii) itself is rank additivity.  Only
the G = gcd(L/b, a/nu) orbit representatives of the a/nu slice blocks are
computed, since the others are row rolls of them.

Tolerance discipline: the scan classifies with `tol` (default 1e-6) and a
mandatory gap check -- every residual must fall below tol or above
1000*tol, otherwise its verdict is "inconclusive" instead of a silent
classification; the closure test and the Gaussian expectations read the
scan's own class mask `table < tol`, with no threshold of their own; the
criteria engine decides with a bare `< tol`, no gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    fibre_representatives,
    orbit_map,
    periodized_gaussian,
    rank_cut,
    tf_inner_products,
    tf_shift,
    tf_shifts,
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
    """Relative distance ||f - P_span f|| / ||f|| of a length-L signal f from the subspace."""
    f = np.asarray(f, dtype=complex)
    F, n, _ = span.blocks.shape
    if f.shape != (F * n,):
        raise InvalidParameter(f"signal length must equal L={F * n}, got shape {f.shape}")
    nf = np.linalg.norm(f)
    if nf == 0:
        raise ZeroInput("membership residual needs a nonzero signal")
    return float(np.linalg.norm(f - span.project(f)) / nf)


@dataclass(frozen=True)
class InvarianceReport:
    """Class table of a grid scan plus the dichotomy verdict.

    The residual on the grid (a/r)Z x (b/r)Z mod L, r the refinement, is
    Lambda-periodic: `table[i, j]` is that of the class (i a/r, j b/r) + Lambda.
    The table is the record every answer is read from: `residual_of`, the
    views `tested_points`, `residuals`, `lattice_points`, and the detected set,
    which is the class mask `table < tol` tiled over Lambda; `invariant_set`
    stores that set as (t, m) pairs for `to_json_dict`.  `verdict` is
    "subset_of_refined_lattice" (`verdict_m` the smallest m dividing r with
    the detected set in (1/m) Lambda), "spans_everything", or "inconclusive".
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

    def residual_of(self, point) -> float:
        """The residual of the grid point (t, m), 0 <= t, m < L; InvalidParameter
        off the grid.  (k a/r, l b/r) is read from its class (k mod r, l mod r)."""
        message = f"{point} lies off the scanned grid"
        t, m = exact_ints(point, (2,), InvalidParameter, message)
        st, sf, r = self.a // self.refinement, self.b // self.refinement, self.refinement
        if not (0 <= t < self.L and 0 <= m < self.L) or t % st or m % sf:
            raise InvalidParameter(message)
        return float(self.table[t // st % r, m // sf % r])

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
    i, j = np.nonzero(np.tile(table < tol, (L // sys.a, L // sys.b)))  # t-major
    detected = tuple([*zip((i * st).tolist(), (j * sf).tolist())])
    return InvarianceReport(L, sys.a, sys.b, tol, detected, verdict, m, r, table)


def group_closure_check(report: InvarianceReport, sys: FiniteGaborSystem) -> bool:
    """Verify the detected set is closed under negation and addition mod L.

    The set is the class mask `table < tol` tiled over Lambda, the preimage of
    the mask under the grid's map onto Z_r x Z_r, so it is a group exactly when
    the mask is a subgroup: -c and c + c' detected for all detected classes c,
    c'.  False when `sys` is not the scanned system's grid.
    """
    if (sys.L, sys.a, sys.b) != (report.L, report.a, report.b):
        return False
    r, det = report.refinement, report.table < report.tol
    i, j = np.nonzero(det)
    return bool(det[-i % r, -j % r].all() and det[(i[:, None] + i) % r, (j[:, None] + j) % r].all())


@dataclass(frozen=True)
class CriteriaReport:
    """Residuals and verdicts for the four equivalent duality criteria.

    res_i    : distance of T_{a/nu} g from the span.
    res_ii   : ||P M_{s L/a} g - delta_{s,0} g|| / ||g||, s = 0..nu-1, with
               P = constant^{-1} S_{gamma,g} over steps (L/b, nu L/a).
    rank_sum / joint_rank / sigma_min / min_principal_gap : the direct-sum
               test for the adjoint subspaces L_s.  Rank additivity is the
               criterion: joint_rank is the rank of K, and rank_sum is nu times
               the rank of L_0, cut in the SVD of the slice blocks projected onto
               K's kept columns, so both come from the stored K.  sigma_min,
               the smallest singular value of the stacked orthonormal slice bases,
               is its margin, read from the class rows of that SVD's left factor:
               0 when the sum is not direct, 1 when the slices are mutually
               orthogonal.  For nu = 2 min_principal_gap is the smallest
               principal angle between L_0 and L_1, 2 arcsin(sigma_min / sqrt 2),
               in radians; None for nu > 2.
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
    nu, W, P, d, rows, g_cols, images = _slice_blocks(an, nu)
    G, n, orbit_size = g_cols.shape
    g = sys.window
    L, a, b = sys.L, sys.a, sys.b
    gamma = an.dual.gamma
    res_i = membership_residual(an.dual.span, tf_shift(g, a // nu, 0))
    inner = np.abs(tf_inner_products(g, gamma, L // b, L // a))
    res_iv = float(inner[:, np.arange(a) % nu != 0].max())

    images[0] -= g_cols
    res_ii = [float(np.linalg.norm(x) / np.linalg.norm(g)) for x in images]

    # K is the adjoint system (L/b, L/a)'s span, stored by the analysis.  Its block
    # r0 + c a/nu is the class c = j mod nu of slice block r0, so slice block r0 is
    # Pi blockdiag(K_c) Y_r0 with Y_r0 the stack of K_c^H W_{r0,c}: the slice basis
    # Q0_r0 = Pi blockdiag(K_c) X_r0 comes from the SVD of the (G, nu k_K, b) stack Y.
    K = an.adjoint_span
    k_K = K.ranks.max()
    Kc = K.blocks[np.arange(G)[:, None] + np.arange(nu) * (a // nu), :, :k_K]
    Y = Kc.conj().swapaxes(2, 3) @ W.reshape(G, L // a, nu, b).swapaxes(1, 2)
    X, s, _ = np.linalg.svd(Y.reshape(G, nu * k_K, b), full_matrices=False)
    k = np.count_nonzero(rank_cut(s, rank_tol), axis=1)
    X = (X * (np.arange(X.shape[2]) < k[:, None, None]))[..., : k.max()].reshape(G, nu, k_K, -1)
    Q0 = (Kc @ X).swapaxes(1, 2).reshape(G, n, -1)
    gamma_cols = _representative_columns(gamma, rows, G)
    gamma_cols -= Q0 @ (Q0.conj().swapaxes(1, 2) @ gamma_cols)

    # (iii)'s margin: d_s[j] depends on c = j mod nu only, so with its rows sorted by
    # class the stack [Q0_r, d_1 Q0_r, ...] is blockdiag(Q_{r,c}) (F_nu x I), F_nu/sqrt(nu)
    # unitary, and sigma_min = sqrt(nu) min_{r,c} sigma_{k_r}(Q_{r,c}) over the class rows
    # Q_{r,c} = K_c X_{r,c}, which share the singular values of the k_K x k_r blocks
    # X_{r,c}: 0 when k_r > k_K.  A rolled block only permutes the classes.
    live = k > 0
    sv = np.linalg.svd(X[live], compute_uv=False)
    s_k = sv[np.arange(live.sum()), :, np.minimum(k[live], k_K) - 1] * (k[live] <= k_K)[:, None]
    sigma_min = float(np.sqrt(nu) * s_k.min())
    # P_K = blockdiag(PKc) is class-diagonal and commutes with every d_s, so each
    # identity of the P_s = d_s P d_s^* is one of P: P_s P_r = d_s (P d_{r-s} P) d_r^*,
    # sum_s P_s is nu times P's class-diagonal blocks, and P P_K is each class c of
    # P's columns times PKc[c].  Block r0 + q G of P and P_K is R P_r0 R^T for a row
    # roll R, R^T d_s R is a multiple of d_s and R keeps the classes, so each
    # Frobenius norm is the representatives' times sqrt(orbit_size).
    PKc = Kc @ Kc.conj().swapaxes(2, 3)
    P5 = P.reshape(G, L // a, nu, L // a, nu)

    def norm(x):
        return float(np.sqrt(orbit_size) * np.linalg.norm(x))

    proj = {
        "idempotence": norm(P @ P - P),
        "mutual_annihilation": max(norm((P * d[s]) @ P) for s in range(1, nu)),
        "sum_equals_PK": norm(nu * np.moveaxis(np.diagonal(P5, axis1=2, axis2=4), 3, 1) - PKc),
    }
    # last, so that this copy of P is not held beside P @ P
    Pc = np.moveaxis(P5, 4, 1).reshape(G, nu, n, L // a).copy()  # [r0, c]: P's class-c columns
    Pc -= Pc @ PKc  # those of P - P P_K
    proj["vanish_on_K_perp"] = norm(Pc)
    projections_ok = all(v < tol for v in proj.values())
    rank_sum, joint_rank = nu * orbit_size * int(k.sum()), K.rank
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
        gamma_l0_residual=float(np.linalg.norm(gamma_cols) / np.linalg.norm(gamma)),
        frame=an.frame,
        adjoint_inner_products=inner,
    )


def _slice_blocks(an: SystemAnalysis, nu: int):
    """nu, read here (an int >= 2 dividing a), and the slice L_0, the system
    (L/b, nu L/a), on the G = gcd(L/b, a/nu) orbit representatives of its a/nu
    Walnut fibres {r + j a/nu : j < n}: their blocks W of g and P of the
    cross-frame operator, the phases d, the `orbit_map` rows, the fibres of g in
    the representatives' rows (`_representative_columns`) and the images P d_s
    of those.  On a fibre M_{s L/a} is the phase e^{2 pi i s r/a} times
    d_s[j] = exp(2 pi i s j / nu), so L_s has the blocks d_s Q_r and P_s the
    blocks d_s P_r d_s^*.  Block r0 + q G of P is R P_r0 R^T for a row roll R,
    and R^T d_s R is a unit multiple of d_s, so P d_s g on that block, read in
    the rows of r0, is P_r0 d_s applied to column q, up to a unit phase.
    """
    sys, g = an.system, an.system.window
    L, a, b = sys.L, sys.a, sys.b
    nu = exact_int(nu, InvalidNu, f"nu must be >= 2, got {nu}", 2)
    exact_int(nu, InvalidNu, f"nu must divide the time step a={a}, got {nu}", 1, a)
    n, G = nu * (L // a), gcd(L // b, a // nu)
    W = fibre_representatives(g, L // b, n)
    gamma_fibres = fibre_representatives(an.dual.gamma, L // b, n)  # a fresh copy
    P = (L / (nu * b)) * W @ np.conjugate(gamma_fibres, out=gamma_fibres).swapaxes(1, 2)
    d = np.exp(2j * np.pi * np.outer(np.arange(nu), np.arange(n)) / nu)
    rows = orbit_map(L, L // b, n)[1]
    g_cols = _representative_columns(g, rows, G)
    return nu, W, P, d, rows, g_cols, P @ (d[:, None, :, None] * g_cols)


def _representative_columns(f: np.ndarray, rows: np.ndarray, G: int) -> np.ndarray:
    """The fibres f_r of a signal on the F blocks of an orbit map, each read in
    the rows of its representative r0: row rows[r, j] of column q of block r0 holds
    f_r[j], r = r0 + q G.  Block r's rolled operator acts on f_r as r0's on this."""
    F, n = rows.shape
    out = np.empty((F, n), dtype=complex)
    out[np.arange(F)[:, None], rows] = f.reshape(n, F).T
    return out.reshape(F // G, G, n).transpose(1, 2, 0)


def dft_vector_relation(
    sys: FiniteGaborSystem, nu: int, rank_tol: float = DEFAULT_RANK_TOL
) -> float:
    """Residual of the identity F_omega u = sqrt(nu) v.

    v_s = M_{-s L/a} P M_{s L/a} g and u_r = T_{-r a/nu} P_G T_{r a/nu} g,
    with F_omega the nu x nu unitary DFT, omega = exp(2 pi i / nu).  The
    identity is unconditional -- it holds whether or not the criteria do.
    """
    an = analyze_system(sys, rank_tol)
    nu, _, _, d, rows, _, images = _slice_blocks(an, nu)
    L, shifts = sys.L, np.arange(nu) * (sys.a // nu)
    # the unit phases of the rolls cancel in d_s^* P_r d_s; read back in each block's rows
    v = (d.conj()[:, None, :, None] * images).transpose(0, 3, 1, 2).reshape(nu, *rows.shape)
    v = v[:, np.arange(len(rows))[:, None], rows].swapaxes(1, 2).reshape(nu, L)
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
    s = np.linalg.svd(fibre_representatives(tf_shifts(sys.window, t, m), d, d), compute_uv=False)
    return np.count_nonzero(rank_cut(s, rank_tol)) * (L // d) // len(s) == L


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
        """Riesz sequence, invariant set exactly Lambda (the class (0, 0) alone
        detected), criteria all fail."""
        return (
            self.frame.is_riesz_sequence
            and self.scan.verdict == "subset_of_refined_lattice"
            and self.scan.verdict_m == 1
            and np.flatnonzero(self.scan.table < self.scan.tol).tolist() == [0]
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
