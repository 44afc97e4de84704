"""Correctness checks, made apart from the library.

Each check returns a list of failure messages (empty when the output is
right).  The references are built here: the synthesis matrix and the
time-frequency shifts from their defining formulas, exact 2x2 algebra in
Fractions, brute-force scans and direct enumeration, and verdicts known by
construction of the inputs.  Nothing is compared with a stored copy of an
earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gaborinv import density

RANK_TOL = 1e-8  # the library's default relative rank cut
TOL = 1e-6  # the library's default invariance tolerance
GRAY_TOP = 1e3 * TOL


def _rel(x, y) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


# -- the frame layer --------------------------------------------------------------

def tf_columns(g: np.ndarray, points) -> np.ndarray:
    """Columns pi(t, m) g with (pi(t, m) g)[n] = exp(2 pi i m (n-t)/L) g[n-t]."""
    L = g.shape[0]
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    idx = (np.arange(L)[:, None] - pts[None, :, 0]) % L
    return g[idx] * np.exp(2j * np.pi * pts[None, :, 1] * idx / L)


def lattice_points(L, a, b):
    return [(k * a, l * b) for l in range(L // b) for k in range(L // a)]


def orthonormal_span(D: np.ndarray) -> np.ndarray:
    U, s, _ = np.linalg.svd(D, full_matrices=False)
    return U[:, : int(np.sum(s > RANK_TOL * s[0]))]


def closed_under_addition(points, L) -> bool:
    pts = set(points)
    return all(((t1 + t2) % L, (f1 + f2) % L) in pts for t1, f1 in pts for t2, f2 in pts)


def system_checks(spec, crit, scan, dual, fb, cert) -> list[str]:
    """Dual window, frame bounds, criteria and scan of one system."""
    L, a, b, nu, name, ref = (spec[k] for k in ("L", "a", "b", "nu", "window", "refinement"))
    g = spec["sys"].window
    bad = []
    D = tf_columns(g, lattice_points(L, a, b))
    S = D @ D.conj().T

    r = np.linalg.norm(S @ dual.gamma - g) / np.linalg.norm(g)
    if not r < 1e-8:
        bad.append(f"S gamma != g (relative residual {r:.2e})")

    lam = np.linalg.eigvalsh(S)
    kept = lam[lam > RANK_TOL * lam[-1]]
    if fb.rank != kept.size or _rel(fb.upper, kept[-1]) > 1e-8 or abs(fb.lower - kept[0]) > 1e-8 * kept[-1]:
        bad.append(f"frame bounds ({fb.lower}, {fb.upper}, rank {fb.rank}) != ({kept[0]}, {kept[-1]}, rank {kept.size})")
    gram = np.linalg.eigvalsh(D.conj().T @ D)
    riesz = bool(gram[0] > RANK_TOL * gram[-1])
    if fb.is_riesz_sequence != riesz:
        bad.append(f"is_riesz_sequence {fb.is_riesz_sequence} != {riesz}")
    if riesz:
        e0 = np.zeros(D.shape[1])
        e0[0] = 1.0
        dev = np.abs(D.conj().T @ dual.gamma - e0).max()
        if not dev < 1e-8:
            bad.append(f"dual window not biorthogonal (max deviation {dev:.2e})")

    expected = {"gaussian": "all_fail", "periodic-gaussian": "all_hold"}.get(name)
    if name == "gaussian" and not (a * b > L and riesz):
        bad.append("gaussian input is not an undersampled Riesz sequence")
    if expected and crit.verdict != expected:
        bad.append(f"criteria verdict {crit.verdict}, expected {expected}")
    if not crit.verdict_consistent:
        bad.append(f"criteria verdicts inconsistent: {crit.holds}")
    Q = orthonormal_span(D)
    shifted = tf_columns(g, [(a // nu, 0)])[:, 0]
    res_i = np.linalg.norm(shifted - Q @ (Q.conj().T @ shifted)) / np.linalg.norm(g)
    if crit.holds["i"] != bool(res_i < TOL):
        bad.append(f"criterion (i) {crit.holds['i']} but residual of T_(a/nu) g is {res_i:.2e}")

    st, sf = a // ref, b // ref
    grid = [(j * st, k * sf) for j in range(L // st) for k in range(L // sf)]
    C = tf_columns(g, grid)
    resid = np.linalg.norm(C - Q @ (Q.conj().T @ C), axis=0) / np.linalg.norm(g)
    if np.any((resid >= TOL) & (resid <= GRAY_TOP)):
        bad.append("a scan residual lies in the gray band; the workload expects a clear verdict")
    detected = {p for p, v in zip(grid, resid) if v < TOL}
    if set(scan.invariant_set) != detected:
        bad.append(f"scan detected {len(scan.invariant_set)} shifts, the reference {len(detected)}")
    m = next(m for m in range(1, ref + 1) if ref % m == 0 and all(t * m % a == 0 and f * m % b == 0 for t, f in detected))
    if scan.verdict != "subset_of_refined_lattice" or scan.verdict_m != m:
        bad.append(f"scan verdict {scan.verdict} m={scan.verdict_m}, expected m={m}")
    if name == "gaussian" and detected != set(lattice_points(L, a, b)):
        bad.append("gaussian: the invariant set is not exactly Lambda")
    if name == "periodic-gaussian" and ((a // nu, 0) not in detected or m % nu):
        bad.append(f"periodic-gaussian: T_(a/nu) not detected or nu={nu} does not divide m={m}")
    if not closed_under_addition(scan.invariant_set, L):
        bad.append("the detected set is not closed under addition")

    cosets = sorted({(t % a, f % b) for t, f in scan.invariant_set})
    orders = [math.lcm(a // math.gcd(t, a), b // math.gcd(f, b)) for t, f in cosets]
    if cert["cosets"] != cosets or cert["orders"] != orders or cert["m"] != scan.verdict_m:
        bad.append(f"coset orders {cert['orders']} (m={cert['m']}), reference {orders} (scan m={scan.verdict_m})")
    for (r_, s_), red in zip(cert["classes"], cert["reductions"]):
        bad += reduction_checks(red, a, b, r_, s_, cert["m"])
    al, be = a / math.sqrt(L), b / math.sqrt(L)
    if _rel(cert["density_bound"], 1 / (al * be) + (1 - 1 / nu) * al * be) > 1e-12:
        bad.append(f"density bound {cert['density_bound']} is wrong")
    return bad


def corollary_checks(rep) -> list[str]:
    """The undersampled Gaussian pipeline: Riesz, invariant set = Lambda, all fail."""
    bad = []
    if not rep.matches_expectations():
        bad.append("gaussian corollary does not match its expectations")
    if not rep.biorthogonality_residual < 1e-8:
        bad.append(f"corollary biorthogonality residual {rep.biorthogonality_residual:.2e}")
    D = tf_columns(_gaussian(rep.L, rep.c), lattice_points(rep.L, rep.a, rep.b))
    lam = np.linalg.eigvalsh(D @ D.conj().T)
    if _rel(rep.frame.upper, lam[-1]) > 1e-8 or set(rep.scan.invariant_set) != set(lattice_points(rep.L, rep.a, rep.b)):
        bad.append("corollary frame bound or invariant set differs from the reference")
    if not closed_under_addition(rep.scan.invariant_set, rep.L):
        bad.append("corollary invariant set not closed under addition")
    return bad


def _gaussian(L, c):
    n = np.arange(L)
    x = ((n + L // 2) % L - L // 2)[:, None] + L * np.arange(-8, 9)[None, :]
    g = np.exp(-c * x**2 / L).sum(axis=1)
    return g / np.linalg.norm(g)


# -- the analysis layer: metaplectic operators ----------------------------------

def unitary_checks(op) -> list[str]:
    U = op.unitary
    dev = np.linalg.norm(U.conj().T @ U - np.eye(op.L)) / math.sqrt(op.L)
    return [] if dev < 1e-10 else [f"metaplectic operator not unitary at L={op.L} (deviation {dev:.2e})"]


def transport_checks(op, sys_, moved, B) -> list[str]:
    """U_B g is the new window and B Lambda the new point set."""
    L = sys_.L
    bad = unitary_checks(op)
    image = {((B[0][0] * t + B[0][1] * f) % L, (B[1][0] * t + B[1][1] * f) % L)
             for t, f in lattice_points(L, sys_.a, sys_.b)}
    pts = set(lattice_points(L, moved.a, moved.b)) if hasattr(moved, "a") else set(moved.points)
    if pts != image:
        bad.append(f"transported point set differs from B Lambda at L={L}")
    r = np.linalg.norm(moved.window - op.unitary @ sys_.window)
    if not r < 1e-12:
        bad.append(f"transported window != U g at L={L} ({r:.2e})")
    return bad


# -- the exact layer ----------------------------------------------------------------

def _mat(entries):
    return [[Fraction(v) for v in row] for row in entries]


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _det(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def _generates(basis, alpha, beta) -> bool:
    """basis @ Z^2 == alpha Z x beta Z: diag(1/alpha, 1/beta) basis is unimodular."""
    M = _mul([[1 / alpha, 0], [0, 1 / beta]], basis)
    return all(v.denominator == 1 for row in M for v in row) and abs(_det(M)) == 1


def reduction_checks(res, a, b, r, s, m) -> list[str]:
    """det B = 1, B (aZ x bZ) = alpha Z x beta Z and B shift = (d alpha/m, 0)."""
    a, b = Fraction(a), Fraction(b)
    B = _mat(res.B.entries)
    shift = (r * a / m, s * b / m)
    lat = [[a, 0], [0, b]]
    if res.fourier_swap:
        shift, lat = (shift[1], shift[0]), [[b, 0], [0, a]]
    image = tuple(B[i][0] * shift[0] + B[i][1] * shift[1] for i in range(2))
    bad = []
    if _det(B) != 1:
        bad.append(f"reduce{(a, b, r, s, m)}: det B = {_det(B)}")
    if image != (res.d * res.alpha / res.m, 0):
        bad.append(f"reduce{(a, b, r, s, m)}: B shift = {image} != (d alpha/m, 0)")
    if not _generates(_mul(B, lat), res.alpha, res.beta):
        bad.append(f"reduce{(a, b, r, s, m)}: B Lambda != alpha Z x beta Z")
    return bad


def separation_checks(out, rows) -> list[str]:
    C, sep = out
    Cm = _mat(C.entries)
    bad = []
    if _det(Cm) != 1:
        bad.append(f"separate {rows}: det C = {_det(Cm)}")
    if not _generates(_mul(Cm, _mat(rows)), sep.alpha, sep.beta):
        bad.append(f"separate {rows}: C Lambda != alpha Z x beta Z")
    return bad


def order_checks(cases, n_scan: int = 420) -> list[str]:
    """Each order against the first n in 1..n_scan with n z in Lambda."""
    bad = []
    ns = np.arange(1, n_scan + 1)
    for z, rows, got in cases:
        B = _mat(rows)
        det = _det(B)
        w = ((B[1][1] * z[0] - B[0][1] * z[1]) / det, (B[0][0] * z[1] - B[1][0] * z[0]) / det)
        hit = np.ones(n_scan, dtype=bool)
        for c in w:
            hit &= (ns * c.numerator) % c.denominator == 0
        brute = int(ns[hit][0]) if hit.any() else None
        if got != brute:
            bad.append(f"order of {z} in {rows}: {got}, brute-force scan {brute}")
    return bad


def adjoint_coset_checks(sep, q, adj, cosets) -> list[str]:
    bad = []
    if adj is not None and (adj.alpha != 1 / sep.beta or adj.beta != 1 / sep.alpha):
        bad.append(f"adjoint of ({sep.alpha}, {sep.beta}) is ({adj.alpha}, {adj.beta})")
    if cosets is not None:
        want = [(k * sep.alpha / q, 0) for k in range(q)]
        distinct = len({(x / sep.alpha) % 1 for x, _ in cosets}) == q
        if list(map(tuple, cosets)) != want or not distinct:
            bad.append(f"cosets of ({sep.alpha}, {sep.beta}) by {q} are wrong")
    return bad


# -- the density layer ---------------------------------------------------------------
# A point set is described here as signed lattices: (sign, basis, shift,
# punctured), counting sign * #(basis Z^2 + shift in the box), less the
# origin when punctured.

def exact_density(members) -> float:
    return sum(sign / abs(np.linalg.det(B)) for sign, B, _, _ in members)


def density_error_bound(members, R: float) -> float:
    """|theta_R - D| bound: a lattice with cell diameter d has
    |#(box) - D (2R)^2| <= D (8 R d + 4 d^2); a removed point adds 1."""
    total = 0.0
    for _, B, _, punctured in members:
        d = np.linalg.norm(B[:, 0]) + np.linalg.norm(B[:, 1])
        total += (8 * R * d + 4 * d * d) / abs(np.linalg.det(B)) + punctured
    return total / (4 * R * R)


def direct_count(members, center, R: float, K: int = 40) -> int:
    k = np.arange(-K, K + 1)
    kk = np.stack(np.meshgrid(k, k, indexing="ij")).reshape(2, -1)
    total = 0
    for sign, B, shift, punctured in members:
        p = B @ kk + np.asarray(shift, float)[:, None]
        inside = (np.abs(p[0] - center[0]) <= R + 1e-9) & (np.abs(p[1] - center[1]) <= R + 1e-9)
        total += sign * (int(inside.sum()) - int(punctured and abs(center[0]) <= R and abs(center[1]) <= R))
    return total


def theta_checks(members, estimates) -> list[str]:
    D = exact_density(members)
    bad = []
    for e in estimates:
        if not abs(e.theta - D) <= density_error_bound(members, e.R):
            bad.append(f"theta_R={e.theta} at R={e.R} is not within O(1/R) of D={D}")
    return bad


def box_count_checks(spec, members, probes) -> list[str]:
    bad = []
    for center, R in probes:
        got, want = density.count_in_box(spec, center, R), direct_count(members, center, R)
        if got != want:
            bad.append(f"count_in_box at {center}, R={R}: {got}, direct enumeration {want}")
    return bad


def transform_checks(members, B, R, out) -> list[str]:
    """D^-(B Gamma) = D^-(Gamma)/|det B|, both sides within their O(1/R) bounds."""
    lhs, rhs = out
    detB = abs(np.linalg.det(B))
    moved = [(s, B @ M, B @ np.asarray(sh, float), p) for s, M, sh, p in members]
    slack = density_error_bound(moved, R) + density_error_bound(members, R) / detB
    if not abs(lhs - rhs) <= slack:
        return [f"density transform: {lhs} vs {rhs} (allowed {slack:.3g})"]
    return []


def equidistribution_checks(z, cell, t_step, n, out) -> list[str]:
    """An irrational line orbit fills the cell: small discrepancy, and a
    covering radius that is small yet no less than the distance from
    sample cell points to the nearest orbit point."""
    cov, disc = out
    al, be = float(cell.alpha), float(cell.beta)
    j = np.arange(1, n + 1, dtype=float)
    pts = np.stack([(j * t_step * z[0]) % al, (j * t_step * z[1]) % be], axis=1)
    probes = (np.arange(0, 200, 25) + 0.5) / 200
    worst = 0.0
    for px in probes * al:
        for py in probes * be:
            d = np.abs(pts - (px, py))
            d = np.minimum(d, (al, be) - d)
            worst = max(worst, float(np.sqrt((d**2).sum(axis=1)).min()))
    scale = math.sqrt(al * be / n)
    bad = []
    if not worst <= cov + 1e-12 or not cov < 10 * scale:
        bad.append(f"covering radius {cov} (probe lower bound {worst}, scale {scale:.3g})")
    if not 0 <= disc < 0.02:
        bad.append(f"discrepancy {disc} of an irrational orbit with {n} points")
    return bad

