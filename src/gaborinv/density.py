"""Lower Beurling density: exact box counts, windowed estimators, diagnostics.

Point sets are structured specs (lattices, punctured/shifted lattices,
separable products with excluded residue classes, unions).  Counting is by
integer-range enumeration -- index ranges are computed in closed form per
window, never by scanning floating point points -- with a boundary fuzz of
1e-9 (4 ulps where that is larger) so closed boxes [-R, R]^2 count their
boundary points.

Also provides the density transformation law under invertible matrices and
an equidistribution diagnostic for irrational line orbits modulo a lattice.

Everything here is float-based; exact lattice algebra lives in `lattice`.
All functions are pure and deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidMatrix, InvalidModulus, InvalidParameter
from .lattice import Lattice2D, SeparableLattice

BOUNDARY_FUZZ = 1e-9

__all__ = [
    "PointSet",
    "LatticePoints",
    "ShiftedLattice",
    "PuncturedLattice",
    "ExcludedResidueProduct",
    "UnionSet",
    "DensityEstimate",
    "omega_spec",
    "count_in_box",
    "lower_density_empirical",
    "omega_density_formula",
    "density_transform_check",
    "interval_count_bounds",
    "equidistribution_diagnostic",
    "pointset_from_json",
    "pointset_to_json",
]


def _fuzz(v: float) -> float:
    """The boundary fuzz at v: BOUNDARY_FUZZ, or 4 ulps where rounding exceeds it."""
    return max(BOUNDARY_FUZZ, 4 * math.ulp(v))


def _axis_count(step: float, lo: float, hi: float) -> int:
    """#(step*Z intersect [lo, hi]), boundary included via fuzz."""
    if hi < lo:
        return 0
    u, v = hi / step, lo / step
    return int(math.floor(u + _fuzz(u)) - math.ceil(v - _fuzz(v))) + 1


def _count_general_lattice(basis: np.ndarray, center, R: float) -> int:
    """Count basis@k inside center + [-R, R]^2.

    Enumerates k1 over the bounding range of the pulled-back box and counts
    the admissible k2 per k1 from the two closed-form interval constraints.
    """
    cx, cy = center
    binv = np.linalg.inv(basis)
    corners = np.array(
        [[cx - R, cx - R, cx + R, cx + R], [cy - R, cy + R, cy - R, cy + R]]
    )
    k = binv @ corners
    k1 = np.arange(int(np.floor(k[0].min())) - 1, int(np.ceil(k[0].max())) + 2)
    lo = np.full(k1.shape, -np.inf)
    hi = np.full(k1.shape, np.inf)
    ok = np.ones(k1.shape, dtype=bool)
    for p, q, c in ((basis[0, 0], basis[0, 1], cx), (basis[1, 0], basis[1, 1], cy)):
        fz = _fuzz(abs(c) + R)
        if q == 0.0:
            ok &= (p * k1 >= c - R - fz) & (p * k1 <= c + R + fz)
        else:
            u = (c - R - fz - p * k1) / q
            v = (c + R + fz - p * k1) / q
            lo = np.maximum(lo, np.minimum(u, v))
            hi = np.minimum(hi, np.maximum(u, v))
    counts = np.where(ok & (hi >= lo), np.floor(hi) - np.ceil(lo) + 1, 0.0)
    return int(counts.sum())


class PointSet:
    """Base class for structured point-set specs."""

    def count_in_box(self, center, R: float) -> int:
        raise NotImplementedError

    def analytic_density(self) -> Optional[float]:
        return None

    def period_cell(self) -> tuple[float, float]:
        """Translation periods (one fundamental cell) used for probing."""
        raise NotImplementedError

    def transformed(self, B: np.ndarray) -> "PointSet":
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        raise NotImplementedError


def _basis_array(lat) -> np.ndarray:
    if isinstance(lat, Lattice2D):
        return np.array([[float(v) for v in row] for row in lat.basis.entries])
    if isinstance(lat, SeparableLattice):
        return np.diag([float(lat.alpha), float(lat.beta)])
    return np.asarray(lat, dtype=float)


@dataclass(frozen=True)
class LatticePoints(PointSet):
    """All points basis @ Z^2 (basis a float 2x2, or an exact lattice)."""

    basis: np.ndarray

    def __post_init__(self):
        b = _basis_array(self.basis)
        if abs(np.linalg.det(b)) < 1e-14:
            raise InvalidMatrix("lattice basis is singular")
        object.__setattr__(self, "basis", b)

    def count_in_box(self, center, R):
        b = self.basis
        if b[0, 1] == 0.0 and b[1, 0] == 0.0:
            nx = _axis_count(abs(b[0, 0]), center[0] - R, center[0] + R)
            ny = _axis_count(abs(b[1, 1]), center[1] - R, center[1] + R)
            return nx * ny
        return _count_general_lattice(b, center, R)

    def analytic_density(self):
        return 1.0 / abs(np.linalg.det(self.basis))

    def period_cell(self):
        return (
            abs(self.basis[0, 0]) + abs(self.basis[0, 1]),
            abs(self.basis[1, 0]) + abs(self.basis[1, 1]),
        )

    def transformed(self, B):
        return LatticePoints(np.asarray(B, float) @ self.basis)

    def to_json_dict(self):
        return {"variant": "lattice", "basis": self.basis.tolist()}


@dataclass(frozen=True)
class ShiftedLattice(PointSet):
    """basis @ Z^2 + shift."""

    basis: np.ndarray
    shift: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "basis", _basis_array(self.basis))
        object.__setattr__(self, "shift", (float(self.shift[0]), float(self.shift[1])))

    def count_in_box(self, center, R):
        c = (center[0] - self.shift[0], center[1] - self.shift[1])
        return LatticePoints(self.basis).count_in_box(c, R)

    def analytic_density(self):
        return 1.0 / abs(np.linalg.det(self.basis))

    def period_cell(self):
        return LatticePoints(self.basis).period_cell()

    def transformed(self, B):
        B = np.asarray(B, float)
        return ShiftedLattice(B @ self.basis, tuple(B @ np.array(self.shift)))

    def to_json_dict(self):
        return {
            "variant": "shifted_lattice",
            "basis": self.basis.tolist(),
            "shift": list(self.shift),
        }


@dataclass(frozen=True)
class PuncturedLattice(PointSet):
    """basis @ Z^2 with the origin removed."""

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _basis_array(self.basis))

    def count_in_box(self, center, R):
        full = LatticePoints(self.basis).count_in_box(center, R)
        origin_in = (
            abs(center[0]) <= R + BOUNDARY_FUZZ and abs(center[1]) <= R + BOUNDARY_FUZZ
        )
        return full - (1 if origin_in else 0)

    def analytic_density(self):
        # one removed point does not change the density
        return 1.0 / abs(np.linalg.det(self.basis))

    def period_cell(self):
        return LatticePoints(self.basis).period_cell()

    def transformed(self, B):
        return PuncturedLattice(np.asarray(B, float) @ self.basis)

    def to_json_dict(self):
        return {"variant": "punctured_lattice", "basis": self.basis.tolist()}


@dataclass(frozen=True)
class ExcludedResidueProduct(PointSet):
    """t_step*Z  x  f_step*(Z \\ nu*Z): full product minus the nu-subsampled rows."""

    t_step: float
    f_step: float
    nu: int

    def __post_init__(self):
        if self.nu < 2:
            raise InvalidModulus(f"nu must be >= 2, got {self.nu}")
        if self.t_step <= 0 or self.f_step <= 0:
            raise InvalidMatrix("steps must be positive")

    def count_in_box(self, center, R):
        nx = _axis_count(self.t_step, center[0] - R, center[0] + R)
        ny_all = _axis_count(self.f_step, center[1] - R, center[1] + R)
        ny_sub = _axis_count(self.nu * self.f_step, center[1] - R, center[1] + R)
        return nx * (ny_all - ny_sub)

    def analytic_density(self):
        return (1.0 / self.t_step) * (1.0 / self.f_step) * (1.0 - 1.0 / self.nu)

    def period_cell(self):
        return (self.t_step, self.nu * self.f_step)

    def transformed(self, B):
        B = np.asarray(B, float)
        full = LatticePoints(B @ np.diag([self.t_step, self.f_step]))
        sub = LatticePoints(B @ np.diag([self.t_step, self.nu * self.f_step]))
        return _LatticeDifference(full, sub)

    def to_json_dict(self):
        return {
            "variant": "product_with_excluded_residues",
            "t_step": self.t_step,
            "f_step": self.f_step,
            "nu": self.nu,
        }


@dataclass(frozen=True)
class _LatticeDifference(PointSet):
    """full \\ sub for nested lattices; produced by transforming products."""

    full: LatticePoints
    sub: LatticePoints

    def count_in_box(self, center, R):
        return self.full.count_in_box(center, R) - self.sub.count_in_box(center, R)

    def analytic_density(self):
        return self.full.analytic_density() - self.sub.analytic_density()

    def period_cell(self):
        return self.sub.period_cell()

    def transformed(self, B):
        B = np.asarray(B, float)
        return _LatticeDifference(self.full.transformed(B), self.sub.transformed(B))


@dataclass(frozen=True)
class UnionSet(PointSet):
    """Union of member sets.  Counts are additive; members are expected to be
    disjoint (overlapping points are counted once per member containing them).
    """

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))

    def count_in_box(self, center, R):
        return sum(m.count_in_box(center, R) for m in self.members)

    def analytic_density(self):
        vals = [m.analytic_density() for m in self.members]
        if any(v is None for v in vals):
            return None
        return float(sum(vals))

    def period_cell(self):
        # commensurable members share the max cell; otherwise this is a
        # probing heuristic only
        cells = [m.period_cell() for m in self.members]
        return (max(c[0] for c in cells), max(c[1] for c in cells))

    def transformed(self, B):
        return UnionSet(tuple(m.transformed(B) for m in self.members))

    def to_json_dict(self):
        return {"variant": "union", "members": [m.to_json_dict() for m in self.members]}


def omega_spec(alpha: float, beta: float, nu: int) -> UnionSet:
    """The punctured lattice alpha*Z x beta*Z unioned with the adjoint-side
    product (1/beta)*Z x (1/alpha)*(Z \\ nu*Z)."""
    return UnionSet(
        (
            PuncturedLattice(np.diag([float(alpha), float(beta)])),
            ExcludedResidueProduct(1.0 / float(beta), 1.0 / float(alpha), nu),
        )
    )


def count_in_box(spec: PointSet, center: Sequence[float], R: float) -> int:
    """Exact number of spec points in center + [-R, R]^2."""
    if R <= 0:
        raise ValueError("R must be positive")
    return spec.count_in_box((float(center[0]), float(center[1])), float(R))


@dataclass(frozen=True)
class DensityEstimate:
    """Windowed count ratio theta_R, with the analytic value when known."""

    R: float
    theta: float
    analytic: Optional[float] = None

    @property
    def gap(self) -> Optional[float]:
        if self.analytic is None:
            return None
        return abs(self.theta - self.analytic)


def lower_density_empirical(
    spec: PointSet, R_list: Sequence[float], probe_grid: int = 32
) -> list[DensityEstimate]:
    """Estimate theta_R = inf_x #(spec in x + [-R,R]^2) / (2R)^2 per R.

    The infimum is approximated over a probe_grid x probe_grid set of window
    centers covering one period cell (sufficient for periodic specs).
    """
    if probe_grid < 1:
        raise ValueError("probe_grid must be >= 1")
    p1, p2 = spec.period_cell()
    analytic = spec.analytic_density()
    out = []
    for R in R_list:
        if R <= 0:
            raise ValueError("all R must be positive")
        best = min(
            spec.count_in_box((i * p1 / probe_grid, j * p2 / probe_grid), R)
            for i in range(probe_grid)
            for j in range(probe_grid)
        )
        out.append(DensityEstimate(float(R), best / (2.0 * R) ** 2, analytic))
    return out


def omega_density_formula(alpha: float, beta: float, nu: int) -> float:
    """1/(alpha*beta) + (1 - 1/nu)*alpha*beta, the density lower bound of the
    combined lattice/adjoint orthogonality set."""
    if nu < 2:
        raise InvalidModulus(f"nu must be >= 2, got {nu}")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha, beta must be positive")
    ab = alpha * beta
    return 1.0 / ab + (1.0 - 1.0 / nu) * ab


def density_transform_check(
    spec: PointSet, B: np.ndarray, R: float, probe_grid: int = 16
) -> tuple[float, float]:
    """Empirical check of D^-(B Gamma) = |det B|^{-1} D^-(Gamma) at scale R.

    Returns (theta_R(B Gamma), |det B|^{-1} * theta_R(Gamma)).
    """
    B = np.asarray(B, dtype=float)
    det = np.linalg.det(B)
    if abs(det) < 1e-14:
        raise InvalidMatrix("transformation matrix is singular")
    lhs = lower_density_empirical(spec.transformed(B), [R], probe_grid)[0].theta
    rhs = lower_density_empirical(spec, [R], probe_grid)[0].theta / abs(det)
    return lhs, rhs


def interval_count_bounds(beta: float, R: float) -> tuple[float, float, int]:
    """Counting bounds (beta*R - 1, beta*R + 1) and the exact count of
    (1/beta)*Z in the closed interval [0, R]."""
    if beta <= 0 or R <= 0:
        raise ValueError("beta and R must be positive")
    exact = int(math.floor(beta * R + _fuzz(beta * R))) + 1
    lo, hi = beta * R - 1.0, beta * R + 1.0
    if not lo <= exact <= hi:
        raise InvalidParameter(f"beta*R = {beta * R!r} is within the fuzz below a lattice point")
    return lo, hi, exact


def equidistribution_diagnostic(
    z: Sequence[float],
    lat: SeparableLattice,
    t_step: float,
    n_samples: int,
    cover_grid: int = 200,
    disc_grid: int = 20,
) -> tuple[float, float]:
    """Covering radius and box-count discrepancy of {t_j z mod Lambda}.

    Samples t_j = j*t_step for j = 1..n_samples.  The covering radius is the
    maximal toroidal distance from a cover_grid x cover_grid set of cell
    points to the sample set; the discrepancy is the worst absolute error of
    anchored-box empirical measures on a disc_grid x disc_grid partition.
    """
    zx, zy = float(z[0]), float(z[1])
    if zx == 0.0 and zy == 0.0:
        raise ValueError("z must be nonzero")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    al, be = float(lat.alpha), float(lat.beta)
    j = np.arange(1, n_samples + 1, dtype=float)
    pts = np.stack([(j * t_step * zx) % al, (j * t_step * zy) % be], axis=1)
    # float rounding can land exactly on the period; fold it back
    pts[:, 0] %= al
    pts[:, 1] %= be

    from scipy.spatial import cKDTree  # deferred: most of the CLI's import time

    tree = cKDTree(pts, boxsize=(al, be))
    gx = (np.arange(cover_grid) + 0.5) * (al / cover_grid)
    gy = (np.arange(cover_grid) + 0.5) * (be / cover_grid)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    dists, _ = tree.query(np.stack([mx.ravel(), my.ravel()], axis=1))
    covering_radius = float(dists.max())

    hist, _, _ = np.histogram2d(
        pts[:, 0], pts[:, 1], bins=[disc_grid, disc_grid], range=[[0, al], [0, be]]
    )
    cum = hist.cumsum(axis=0).cumsum(axis=1) / n_samples
    ii, jj = np.meshgrid(
        np.arange(1, disc_grid + 1), np.arange(1, disc_grid + 1), indexing="ij"
    )
    area_frac = (ii / disc_grid) * (jj / disc_grid)
    discrepancy = float(np.max(np.abs(cum - area_frac)))
    return covering_radius, discrepancy


_VARIANTS = {
    "lattice": lambda d: LatticePoints(np.array(d["basis"], float)),
    "shifted_lattice": lambda d: ShiftedLattice(
        np.array(d["basis"], float), tuple(d["shift"])
    ),
    "punctured_lattice": lambda d: PuncturedLattice(np.array(d["basis"], float)),
    "product_with_excluded_residues": lambda d: ExcludedResidueProduct(
        d["t_step"], d["f_step"], d["nu"]
    ),
}


def pointset_from_json(text: str) -> PointSet:
    def build(d: dict) -> PointSet:
        v = d.get("variant")
        if v == "union":
            return UnionSet(tuple(build(m) for m in d["members"]))
        if v not in _VARIANTS:
            raise ValueError(f"unknown point-set variant {v!r}")
        return _VARIANTS[v](d)

    return build(json.loads(text))


def pointset_to_json(spec: PointSet) -> str:
    return json.dumps(spec.to_json_dict(), sort_keys=True)
