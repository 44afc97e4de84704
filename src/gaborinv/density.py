"""Lower Beurling density: exact box counts, windowed estimators, diagnostics.

Every point set is a signed sum of lattices.  A set holds `terms`, a tuple
of (sign, basis, shift, punctured), and stands for the points counted as
sign * #(basis @ Z^2 + shift), less the point k = 0 of a punctured term.
A lattice is one term; the product t*Z x f*(Z \\ nu*Z) is the full product
less its nu-subsampled rows; a union concatenates its members' terms.  Box
counts, the probing cell and the image under an invertible matrix are each
one rule over the terms.

Counting is by integer-range enumeration -- index ranges are computed in
closed form per window, never by scanning floating point points -- with a
boundary fuzz of 1e-9 (4 ulps where that is larger) so closed boxes
[-R, R]^2 count their boundary points.  A count takes an array of window
centers: the windowed estimators count each radius over the whole probe grid
in one batched pass, in chunks that hold at most _ROWS_PER_CHUNK
(center, row) pairs, so their memory does not grow with the grid or R.

Also provides the density transformation law under invertible matrices and
an equidistribution diagnostic for irrational line orbits modulo a lattice.

Everything here is float-based; exact lattice algebra lives in `lattice`.
All functions are pure and deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidMatrix, InvalidModulus, InvalidParameter, exact_int
from .lattice import Lattice2D, SeparableLattice

BOUNDARY_FUZZ = 1e-9
_ROWS_PER_CHUNK = 1 << 16  # (center, k1 row) pairs per pass of a count: its memory is bounded

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

_ORIGIN = (0.0, 0.0)


def _fuzz(v):
    """The boundary fuzz at v, elementwise: BOUNDARY_FUZZ, or 4 ulps where rounding
    exceeds it."""
    return np.maximum(BOUNDARY_FUZZ, 4 * np.spacing(np.abs(v)))


def _check_radius(R: float) -> None:
    """InvalidParameter unless 0 < R < inf, which NaN fails."""
    if not 0 < R < math.inf:
        raise InvalidParameter(f"R must lie in (0, inf), got {R!r}")


def _box_counts(x0, x1, y0, y1) -> np.ndarray:
    """The index ranges' product max(x1 - x0 + 1, 0) * max(y1 - y0 + 1, 0) exactly,
    for arrays of integer-valued floats: int64 where the float product is below
    2**53 (so it and its factors are exact), else Python ints."""

    def count(x0, x1, y0, y1):
        return np.maximum(x1 - x0 + 1, 0) * np.maximum(y1 - y0 + 1, 0)

    n = count(x0, x1, y0, y1)
    if n.max() < 2.0**53:
        return n.astype(np.int64)
    return count(*(np.frompyfunc(int, 1, 1)(w) for w in (x0, x1, y0, y1)))


def _lattice_count(basis: np.ndarray, cx: np.ndarray, cy: np.ndarray, R: float):
    """The count of basis @ Z^2 in each box (cx, cy) + [-R, R]^2, and whether it
    includes k = 0: two arrays over the centers.

    A diagonal basis counts each axis in closed form.  Otherwise k1 runs over one
    range covering every center's pulled-back box, at most _ROWS_PER_CHUNK
    (center, row) pairs per pass, and the admissible k2 of each pair are counted
    from the two closed-form interval constraints; a row outside a center's box
    has an empty interval and counts 0.
    """
    (p, q), (u, v) = basis.tolist()
    if q == 0.0 and u == 0.0:
        ends = []
        for step, c in ((abs(p), cx), (abs(v), cy)):
            lo, hi = (c - R) / step, (c + R) / step
            ends += [np.ceil(lo - _fuzz(lo)), np.floor(hi + _fuzz(hi))]
        x0, x1, y0, y1 = ends
        return _box_counts(x0, x1, y0, y1), (x0 <= 0) & (0 <= x1) & (y0 <= 0) & (0 <= y1)
    binv = np.linalg.inv(basis)
    k = [binv[0, 0] * x + binv[0, 1] * y for x in (cx - R, cx + R) for y in (cy - R, cy + R)]
    start = int(np.floor(min(w.min() for w in k))) - 1
    stop = int(np.ceil(max(w.max() for w in k))) + 2
    rows = max(1, _ROWS_PER_CHUNK // cx.size)
    axes = [
        (basis[0, 0], basis[0, 1], cx[:, None], _fuzz(np.abs(cx) + R)[:, None]),
        (basis[1, 0], basis[1, 1], cy[:, None], _fuzz(np.abs(cy) + R)[:, None]),
    ]
    total, origin = np.zeros(cx.size, np.int64), np.zeros(cx.size, bool)
    for row in range(start, stop, rows):
        k1 = np.arange(row, min(row + rows, stop))
        shape = (cx.size, k1.size)
        lo, hi, ok = np.full(shape, -np.inf), np.full(shape, np.inf), np.ones(shape, bool)
        for p, q, c, fz in axes:
            if q == 0.0:
                ok &= (p * k1 >= c - R - fz) & (p * k1 <= c + R + fz)
            else:
                # a subnormal q overflows to +-inf, which is the exact limit of the interval
                with np.errstate(over="ignore"):
                    u = (c - R - fz - p * k1) / q
                    v = (c + R + fz - p * k1) / q
                lo = np.maximum(lo, np.minimum(u, v))
                hi = np.minimum(hi, np.maximum(u, v))
        first, last = np.where(ok, np.ceil(lo), np.inf), np.floor(hi)
        total += np.maximum(last - first + 1, 0.0).sum(axis=1).astype(np.int64)
        i = -row  # the row k1 = 0
        if 0 <= i < k1.size:
            origin = (first[:, i] <= 0) & (0 <= last[:, i])
    return total, origin


def _basis_array(lat) -> np.ndarray:
    """A float 2x2 basis; InvalidMatrix when an entry is not finite or it is singular."""
    if isinstance(lat, Lattice2D):
        b = np.array([[float(v) for v in row] for row in lat.basis.entries])
    elif isinstance(lat, SeparableLattice):
        b = np.diag([float(lat.alpha), float(lat.beta)])
    else:
        b = np.array(lat, dtype=float)  # a copy: the caller's array may change later
    if not np.isfinite(b).all():
        raise InvalidMatrix("lattice basis entries must be finite")
    if abs(np.linalg.det(b)) < 1e-14:
        raise InvalidMatrix("lattice basis is singular")
    return b


@dataclass(frozen=True)
class PointSet:
    """A signed sum of lattices: `terms` holds (sign, basis, shift, punctured)
    tuples, built once by each set's constructor.  A named set has a class-level
    JSON `variant` tag; its JSON form is that tag plus its init fields."""

    terms: tuple = field(init=False, repr=False, compare=False)
    variant = None  # the JSON tag; None for a transformed set, which has no JSON form

    def _set(self, terms: tuple, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "terms", terms)

    def count_in_box(self, center, R: float) -> int:
        """The signed count of the terms in center + [-R, R]^2."""
        return int(self._counts(np.array([center[0]], float), np.array([center[1]], float), R)[0])

    def _counts(self, cx: np.ndarray, cy: np.ndarray, R: float) -> np.ndarray:
        """The signed count of the terms in each box (cx, cy) + [-R, R]^2."""
        total = 0
        for sign, basis, shift, punctured in self.terms:
            n, origin = _lattice_count(basis, cx - shift[0], cy - shift[1], R)
            # k = 0 leaves a punctured count only if the count, with its fuzz, took it
            if punctured:
                n = n - origin.astype(n.dtype)
            total = total + sign * n
        return total

    def analytic_density(self) -> float:
        return float(sum(sign / abs(np.linalg.det(b)) for sign, b, _, _ in self.terms))

    def period_cell(self) -> tuple[float, float]:
        """Translation periods used for probing: the largest row sums
        |b_i1| + |b_i2| over the terms (one fundamental cell for nested terms;
        a probing heuristic for incommensurable unions)."""
        rows = np.max([np.abs(b).sum(axis=1) for _, b, _, _ in self.terms], axis=0)
        return float(rows[0]), float(rows[1])

    def transformed(self, B: np.ndarray) -> "PointSet":
        """The image B @ self: every term mapped to (sign, B basis, B shift, punctured)."""
        B = np.asarray(B, float)
        return _Terms(
            tuple(
                (s, _basis_array(B @ b), tuple((B @ shift).tolist()), p)
                for s, b, shift, p in self.terms
            )
        )

    def to_json_dict(self) -> dict:
        """The `variant` tag and the init fields: arrays and tuples as lists,
        member sets as their own JSON dicts."""
        if self.variant is None:
            raise NotImplementedError("a transformed point set has no JSON form")
        init = {f.name: _json_value(getattr(self, f.name)) for f in fields(self) if f.init}
        return {"variant": self.variant, **init}


def _json_value(v):
    if isinstance(v, PointSet):
        return v.to_json_dict()
    if isinstance(v, tuple):
        return [_json_value(x) for x in v]
    return v.tolist() if isinstance(v, np.ndarray) else v


@dataclass(frozen=True)
class _Terms(PointSet):
    """A signed sum of lattices with no named form: the image under `transformed`."""

    terms: tuple


@dataclass(frozen=True)
class LatticePoints(PointSet):
    """All points basis @ Z^2 (basis a float 2x2, or an exact lattice)."""

    basis: np.ndarray
    variant = "lattice"

    def __post_init__(self):
        b = _basis_array(self.basis)
        self._set(((1, b, _ORIGIN, False),), basis=b)


@dataclass(frozen=True)
class ShiftedLattice(PointSet):
    """basis @ Z^2 + shift."""

    basis: np.ndarray
    shift: tuple[float, float]
    variant = "shifted_lattice"

    def __post_init__(self):
        b, shift = _basis_array(self.basis), (float(self.shift[0]), float(self.shift[1]))
        self._set(((1, b, shift, False),), basis=b, shift=shift)


@dataclass(frozen=True)
class PuncturedLattice(PointSet):
    """basis @ Z^2 with the origin removed."""

    basis: np.ndarray
    variant = "punctured_lattice"

    def __post_init__(self):
        b = _basis_array(self.basis)
        self._set(((1, b, _ORIGIN, True),), basis=b)


@dataclass(frozen=True)
class ExcludedResidueProduct(PointSet):
    """t_step*Z  x  f_step*(Z \\ nu*Z): full product minus the nu-subsampled rows."""

    t_step: float
    f_step: float
    nu: int
    variant = "product_with_excluded_residues"

    def __post_init__(self):
        nu = exact_int(self.nu, InvalidModulus, f"nu must be >= 2, got {self.nu}", 2)
        if self.t_step <= 0 or self.f_step <= 0:
            raise InvalidMatrix("steps must be positive")
        full = _basis_array(np.diag([self.t_step, self.f_step]))
        sub = _basis_array(np.diag([self.t_step, nu * self.f_step]))
        self._set(((1, full, _ORIGIN, False), (-1, sub, _ORIGIN, False)), nu=nu)

    def analytic_density(self):
        return float((1.0 / self.t_step) * (1.0 / self.f_step) * (1.0 - 1.0 / self.nu))


@dataclass(frozen=True)
class UnionSet(PointSet):
    """Union of member sets.  Counts are additive; members are expected to be
    disjoint (overlapping points are counted once per member containing them).
    """

    members: tuple
    variant = "union"

    def __post_init__(self):
        members = tuple(self.members)
        self._set(tuple(t for m in members for t in m.terms), members=members)

    def analytic_density(self):
        return float(sum(m.analytic_density() for m in self.members))


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
    """Exact number of spec points in center + [-R, R]^2, 0 < R < inf, center finite."""
    _check_radius(R)
    c = (float(center[0]), float(center[1]))
    if not (math.isfinite(c[0]) and math.isfinite(c[1])):
        raise InvalidParameter(f"center must be finite, got {c}")
    return spec.count_in_box(c, float(R))


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
    """Estimate theta_R = inf_x #(spec in x + [-R,R]^2) / (2R)^2 per R, 0 < R < inf.

    The infimum is approximated over a probe_grid x probe_grid set of window
    centers (i*p1/probe_grid, j*p2/probe_grid) covering one period cell
    (sufficient for periodic specs), counted per R in chunks of at most
    _ROWS_PER_CHUNK centers.
    """
    probe_grid = exact_int(probe_grid, ValueError, "probe_grid must be >= 1", 1)
    p1, p2 = spec.period_cell()
    analytic = spec.analytic_density()
    out = []
    for R in R_list:
        _check_radius(R)
        best = min(spec._counts(cx, cy, R).min() for cx, cy in _probe_centers(p1, p2, probe_grid))
        out.append(DensityEstimate(float(R), int(best) / (2.0 * R) ** 2, analytic))
    return out


def _probe_centers(p1: float, p2: float, g: int):
    """The centers (i*p1/g, j*p2/g), 0 <= i, j < g, as (cx, cy) arrays of at most
    _ROWS_PER_CHUNK centers each."""
    for start in range(0, g * g, _ROWS_PER_CHUNK):
        i, j = np.divmod(np.arange(start, min(start + _ROWS_PER_CHUNK, g * g)), g)
        yield i * p1 / g, j * p2 / g


def omega_density_formula(alpha: float, beta: float, nu: int) -> float:
    """1/(alpha*beta) + (1 - 1/nu)*alpha*beta, the density lower bound of the
    combined lattice/adjoint orthogonality set."""
    nu = exact_int(nu, InvalidModulus, f"nu must be >= 2, got {nu}", 2)
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


_COVER_GRID, _DISC_GRID = 200, 20  # cells per side of the covering and discrepancy grids


def equidistribution_diagnostic(
    z: Sequence[float],
    lat: SeparableLattice,
    t_step: float,
    n_samples: int,
) -> tuple[float, float]:
    """Covering radius and box-count discrepancy of {t_j z mod Lambda}.

    Samples t_j = j*t_step for j = 1..n_samples.  The covering radius is the
    maximal toroidal distance from a _COVER_GRID x _COVER_GRID set of cell
    points to the sample set; the discrepancy is the worst absolute error of
    anchored-box empirical measures on a _DISC_GRID x _DISC_GRID partition.
    """
    zx, zy = float(z[0]), float(z[1])
    if zx == 0.0 and zy == 0.0:
        raise ValueError("z must be nonzero")
    n_samples = exact_int(n_samples, ValueError, "n_samples must be >= 1", 1)
    al, be = float(lat.alpha), float(lat.beta)
    j = np.arange(1, n_samples + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead of warned
        x, y = j * t_step * zx, j * t_step * zy
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameter(
            f"every sample j*t_step*z must be finite, got t_step={t_step}, z=({zx}, {zy})"
        )
    pts = np.stack([x % al, y % be], axis=1)
    # float rounding can land exactly on the period; fold it back
    pts[:, 0] %= al
    pts[:, 1] %= be

    from scipy.spatial import cKDTree  # deferred: most of the CLI's import time

    tree = cKDTree(pts, boxsize=(al, be))
    gx = (np.arange(_COVER_GRID) + 0.5) * (al / _COVER_GRID)
    gy = (np.arange(_COVER_GRID) + 0.5) * (be / _COVER_GRID)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    dists, _ = tree.query(np.stack([mx.ravel(), my.ravel()], axis=1))
    covering_radius = float(dists.max())

    hist, _, _ = np.histogram2d(
        pts[:, 0], pts[:, 1], bins=[_DISC_GRID, _DISC_GRID], range=[[0, al], [0, be]]
    )
    cum = hist.cumsum(axis=0).cumsum(axis=1) / n_samples
    ii, jj = np.meshgrid(
        np.arange(1, _DISC_GRID + 1), np.arange(1, _DISC_GRID + 1), indexing="ij"
    )
    area_frac = (ii / _DISC_GRID) * (jj / _DISC_GRID)
    discrepancy = float(np.max(np.abs(cum - area_frac)))
    return covering_radius, discrepancy


_BY_TAG = {
    cls.variant: cls
    for cls in (LatticePoints, ShiftedLattice, PuncturedLattice, ExcludedResidueProduct, UnionSet)
}


def pointset_from_json(text: str) -> PointSet:
    def build(d: dict) -> PointSet:
        cls = _BY_TAG.get(d.get("variant"))
        if cls is None:
            raise ValueError(f"unknown point-set variant {d.get('variant')!r}")
        kwargs = {k: v for k, v in d.items() if k != "variant"}
        if cls is UnionSet:
            kwargs["members"] = tuple(build(m) for m in kwargs["members"])
        return cls(**kwargs)

    return build(json.loads(text))


def pointset_to_json(spec: PointSet) -> str:
    return json.dumps(spec.to_json_dict(), sort_keys=True)
