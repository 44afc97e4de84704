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

from .errors import (
    InvalidMatrix, InvalidModulus, InvalidParameter, check_positive, exact_int, read_pair
)
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


def _box_counts(x0, x1, y0, y1) -> np.ndarray:
    """The index ranges' product max(x1 - x0 + 1, 0) * max(y1 - y0 + 1, 0) exactly,
    for arrays of integer-valued floats: int64 where the float product is below
    2**53 (so it and its factors are exact), else Python ints."""

    def count(x0, x1, y0, y1):
        return np.maximum(x1 - x0 + 1, 0) * np.maximum(y1 - y0 + 1, 0)

    with np.errstate(over="ignore"):  # a product beyond the float range takes the int path
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


def _real_pair(name: str, value) -> tuple[float, float]:
    """`value` as a pair of floats, read by `read_pair`; InvalidParameter otherwise."""
    message = f"{name} must be a pair of reals"
    x, y = read_pair(value, message)
    try:
        return float(x), float(y)
    except (TypeError, ValueError):
        raise InvalidParameter(message) from None


def _finite_pair(name: str, value) -> tuple[float, float]:
    """`_real_pair` with both entries finite; InvalidParameter otherwise."""
    x, y = _real_pair(name, value)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidParameter(f"{name} must be finite, got {(x, y)}")
    return x, y


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
    # singular at any scale: the determinant with each row divided by its largest entry
    m = np.abs(b).max(axis=1, keepdims=True)
    if not m.all() or abs(np.linalg.det(b / m)) < 1e-14:
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
        """The signed count of the terms in center + [-R, R]^2, 0 < R < inf, center finite."""
        check_positive("R", R)
        cx, cy = _finite_pair("center", center)
        return int(self._counts(np.array([cx]), np.array([cy]), float(R))[0])

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
        b, shift = _basis_array(self.basis), _finite_pair("shift", self.shift)
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
        check_positive("t_step", self.t_step)
        check_positive("f_step", self.f_step)
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
    """Exact number of spec points in center + [-R, R]^2: `spec.count_in_box`."""
    return spec.count_in_box(center, R)


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
    probe_grid = exact_int(probe_grid, InvalidParameter, "probe_grid must be >= 1", 1)
    p1, p2 = spec.period_cell()
    analytic = spec.analytic_density()
    out = []
    for R in R_list:
        check_positive("R", R)
        best = min(spec._counts(cx, cy, R).min() for cx, cy in _probe_centers(p1, p2, probe_grid))
        try:
            theta = int(best) / (2.0 * R) ** 2
        except OverflowError:
            raise InvalidParameter(f"R = {R!r}: the window's area or count overflows") from None
        except ZeroDivisionError:  # the area underflows to 0
            theta = math.inf
        if theta == math.inf:  # or to a subnormal that the count over it overflows
            raise InvalidParameter(f"R = {R!r}: the window's area underflows")
        out.append(DensityEstimate(float(R), theta, analytic))
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
    check_positive("alpha", alpha)
    check_positive("beta", beta)
    ab = alpha * beta
    return 1.0 / ab + (1.0 - 1.0 / nu) * ab


def density_transform_check(
    spec: PointSet, B: np.ndarray, R: float, probe_grid: int = 16
) -> tuple[float, float]:
    """Empirical check of D^-(B Gamma) = |det B|^{-1} D^-(Gamma) at scale R.

    Returns (theta_R(B Gamma), |det B|^{-1} * theta_R(Gamma)).
    """
    B = np.asarray(B, dtype=float)
    lhs = lower_density_empirical(spec.transformed(B), [R], probe_grid)[0].theta
    rhs = lower_density_empirical(spec, [R], probe_grid)[0].theta / abs(np.linalg.det(B))
    return lhs, rhs


def interval_count_bounds(beta: float, R: float) -> tuple[float, float, int]:
    """Counting bounds (beta*R - 1, beta*R + 1) and the exact count of
    (1/beta)*Z in the closed interval [0, R]."""
    check_positive("beta", beta)
    check_positive("R", R)
    if beta * R == math.inf:
        raise InvalidParameter(f"beta*R overflows: beta={beta!r}, R={R!r}")
    exact = int(math.floor(beta * R + _fuzz(beta * R))) + 1
    lo, hi = beta * R - 1.0, beta * R + 1.0
    if not lo <= exact <= hi:
        raise InvalidParameter(f"beta*R = {beta * R!r} is within the fuzz below a lattice point")
    return lo, hi, exact


_COVER_GRID, _DISC_GRID = 200, 20  # cells per side of the covering and discrepancy grids
_COVER_CHUNK = 1 << 16  # elements per temporary of the covering-radius search
_COVER_SLACK = 1e-9  # relative margin that keeps the search's bounds safe from rounding


def equidistribution_diagnostic(
    z: Sequence[float],
    lat: SeparableLattice,
    t_step: float,
    n_samples: int,
) -> tuple[float, float]:
    """Covering radius and box-count discrepancy of {t_j z mod Lambda}.

    Samples t_j = j*t_step for j = 1..n_samples.  The covering radius is the
    maximum over the centers of a _COVER_GRID x _COVER_GRID partition of the
    cell of sqrt(min over samples of dx*dx + dy*dy), with the toroidal
    dx = min(|qx - px|, alpha - |qx - px|) and dy alike: that float exactly,
    found by an exact local search that never pairs every center with every
    sample (`_covering_radius`).  The discrepancy is the worst absolute error
    of anchored-box empirical measures on a _DISC_GRID x _DISC_GRID partition.
    """
    zx, zy = _real_pair("z", z)  # a non-finite z is rejected with the samples below
    if zx == 0.0 and zy == 0.0:
        raise InvalidParameter("z must be nonzero")
    n_samples = exact_int(n_samples, InvalidParameter, "n_samples must be >= 1", 1)
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
    covering_radius = _covering_radius(pts[:, 0], pts[:, 1], al, be)

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


def _torus_sq(cx, cy, px, py, al: float, be: float):
    """dx*dx + dy*dy with dx = min(|cx - px|, al - |cx - px|) and dy alike, broadcast."""
    dx, dy = np.abs(cx - px), np.abs(cy - py)
    dx, dy = np.minimum(dx, al - dx), np.minimum(dy, be - dy)
    return dx * dx + dy * dy


def _covering_radius(x: np.ndarray, y: np.ndarray, al: float, be: float) -> float:
    """max over the _COVER_GRID**2 cell centers of sqrt(min over samples (x, y)
    of _torus_sq), bit for bit.  Besides sorted copies of the samples, every
    temporary holds at most _COVER_CHUNK elements.

    Each sample lies in the cell of one center.  Every sample updates the
    centers within a window of cells around its own that reaches twice the
    mean spacing sqrt(al*be/n); a center whose minimum lies inside the
    window's inner radius has its exact value.  Only the maximum is returned,
    so another center matters only while its minimum, an upper bound, exceeds
    the largest exact value.  For those, the distance e to the nearest
    occupied cell bounds the value from below by (e - half a cell diagonal)**2,
    and that cell's samples bound it from above; the ones whose upper bound
    exceeds the best lower bound are searched exactly over the cells inside
    that bound, largest bound first, dropping the rest as the best value grows.
    """
    G, n = _COVER_GRID, x.size
    hx, hy = al / G, be / G
    gx, gy = (np.arange(G) + 0.5) * hx, (np.arange(G) + 0.5) * hy
    cell = np.minimum((x * (G / al)).astype(np.int64), G - 1) * G
    cell += np.minimum((y * (G / be)).astype(np.int64), G - 1)
    order = np.argsort(cell)
    x, y, cell = x[order], y[order], cell[order]
    start = np.searchsorted(cell, np.arange(G * G + 1))  # cell c holds start[c]:start[c + 1]

    reach = 2.0 * math.sqrt(al) * math.sqrt(be / n)
    (ox, rx), (oy, ry) = _cell_window(reach / hx), _cell_window(reach / hy)
    best = np.full(G * G, np.inf)
    step = max(1, _COVER_CHUNK // (ox.size * oy.size))
    for s in range(0, n, step):
        ci, cj = np.divmod(cell[s : s + step, None], G)
        ti, tj = (ci + ox) % G, (cj + oy) % G
        f = _torus_sq(gx[ti][:, :, None], gy[tj][:, None, :], x[s : s + step, None, None],
                      y[s : s + step, None, None], al, be)
        np.minimum.at(best, (ti[:, :, None] * G + tj[:, None, :]).ravel(), f.ravel())
    exact = best <= min(rx * hx, ry * hy) ** 2 * (1 - _COVER_SLACK)
    top = float(best[exact].max(initial=0.0))
    rest = np.flatnonzero(~exact & (best > top))
    if rest.size == 0:
        return math.sqrt(top)

    e, near = _nearest_occupied_cell(np.diff(start).reshape(G, G) > 0, hx, hy)
    e, near = e.ravel()[rest], near.ravel()[rest]
    half = 0.5 * math.hypot(hx, hy) * (1 + _COVER_SLACK)
    top = max(top, float((np.maximum(e - half, 0.0) ** 2).max()) * (1 - _COVER_SLACK))
    keep = (e + half) ** 2 * (1 + _COVER_SLACK) > top
    rest, near = rest[keep], near[keep]
    ci, cj = np.divmod(rest, G)
    # the samples of the nearest occupied cell give an upper bound close to the value
    near_min = _ranges_min(start[near], start[near + 1], gx[ci], gy[cj], x, y, al, be)
    upper = np.minimum(best[rest], near_min)
    order = np.argsort(-upper)
    rest, upper = rest[order], upper[order]
    batch = 16  # doubles: the first centers searched usually settle the maximum
    while rest.size:
        # column offsets -k..k reach every sample within sqrt(upper)
        reach = np.sqrt(upper[:batch] * (1 + _COVER_SLACK))
        k = np.minimum(np.ceil(reach / hx + 0.5), G // 2).astype(np.int64)
        ncol = np.minimum(2 * k + 1, G)
        b = max(1, int(np.searchsorted(np.cumsum(ncol), _COVER_CHUNK, side="right")))
        owner = np.repeat(np.arange(b), ncol[:b])
        off = np.arange(owner.size) - np.repeat(np.cumsum(ncol[:b]) - ncol[:b] + k[:b], ncol[:b])
        ci, cj = np.divmod(rest[owner], G)
        gap = np.maximum(np.abs(off) - 0.5, 0.0) * hx * (1 - _COVER_SLACK)
        dy = np.sqrt(np.maximum(upper[owner] * (1 + _COVER_SLACK) - gap * gap, 0.0))
        lo = np.floor((gy[cj] - dy) / hy - 1e-6).astype(np.int64)
        hi = np.floor((gy[cj] + dy) / hy + 1e-6).astype(np.int64)
        whole = hi - lo + 1 >= G
        lo, hi = np.where(whole, 0, lo % G), np.where(whole, G - 1, hi - lo + lo % G)
        base = (ci + off) % G * G  # rows lo..hi of the column, the part beyond G - 1 wrapped
        value = np.full(b, np.inf)
        for a, z in ((lo, np.minimum(hi, G - 1) + 1), (0, np.maximum(hi - G + 1, 0))):
            found = _ranges_min(start[base + a], start[base + z], gx[ci], gy[cj], x, y, al, be)
            np.minimum.at(value, owner, found)
        top = max(top, float(value.max()))
        keep = upper[b:] > top
        rest, upper, batch = rest[b:][keep], upper[b:][keep], 2 * batch
    return math.sqrt(top)


def _cell_window(reach: float) -> tuple[np.ndarray, float]:
    """Cell offsets -w..w with w + 1/2 >= reach (in cells), and the window's inner
    radius w + 1/2; every cell once, radius inf, when the window would wrap."""
    w = max(0, math.ceil(min(reach, _COVER_GRID) - 0.5))
    if 2 * w + 1 >= _COVER_GRID:
        return np.arange(_COVER_GRID), math.inf
    return np.arange(-w, w + 1), w + 0.5


def _nearest_occupied_cell(occupied: np.ndarray, hx: float, hy: float):
    """For each cell of the periodic grid, the distance from its center to the
    nearest occupied cell's center, and that cell's flat index: the nearest
    occupied row in each column, then the minimum over column offsets, nearest
    first, until the offset alone exceeds every distance."""
    G = occupied.shape[0]
    k, j = np.arange(3 * G), np.arange(G)
    tiled = np.tile(occupied, 3)
    below = np.maximum.accumulate(np.where(tiled, k, -2 * G), axis=1)[:, G : 2 * G]
    above = np.minimum.accumulate(np.where(tiled, k, 5 * G)[:, ::-1], axis=1)[:, ::-1]
    above = above[:, G : 2 * G]
    row = np.where(j + G - below <= above - j - G, below, above) - G
    col2 = np.where(occupied.any(axis=1)[:, None], ((row - j) * hy) ** 2, np.inf)
    twice = np.concatenate([col2, col2])  # twice[first + i] is column (i + first) % G
    e2, src = col2.copy(), np.repeat(j[:, None], G, axis=1)
    for s in range(1, G // 2 + 1):
        if (s * hx) ** 2 >= e2.max():
            break
        for first in (G - s, s):  # the columns s to the left, then to the right
            cand = (s * hx) ** 2 + twice[first : first + G]
            better = cand < e2
            np.copyto(e2, cand, where=better)
            np.copyto(src, (j[:, None] + first) % G, where=better)
    return np.sqrt(e2), src * G + row[src, j] % G


def _ranges_min(lo, hi, cx, cy, x, y, al: float, be: float) -> np.ndarray:
    """min of _torus_sq from (cx[r], cy[r]) over the samples lo[r]:hi[r], inf for an
    empty range, _COVER_CHUNK samples at a time."""
    out = np.full(lo.size, np.inf)
    size = hi - lo
    nz = np.flatnonzero(size > 0)
    end = np.cumsum(size[nz])
    total = int(end[-1]) if nz.size else 0
    for b in range(0, total, _COVER_CHUNK):
        flat = np.arange(b, min(b + _COVER_CHUNK, total))
        r = np.searchsorted(end, flat, side="right")
        idx = lo[nz[r]] + flat - (end[r] - size[nz[r]])
        f = _torus_sq(cx[nz[r]], cy[nz[r]], x[idx], y[idx], al, be)
        first = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
        np.minimum.at(out, nz[r[first]], np.minimum.reduceat(f, first))
    return out


_BY_TAG = {
    cls.variant: cls
    for cls in (LatticePoints, ShiftedLattice, PuncturedLattice, ExcludedResidueProduct, UnionSet)
}


def pointset_from_json(text: str) -> PointSet:
    """The point set of a `pointset_to_json` document; ValueError if it is malformed."""

    def build(d: dict) -> PointSet:
        cls = _BY_TAG.get(d.get("variant"))
        if cls is None:
            raise ValueError(f"unknown point-set variant {d.get('variant')!r}")
        kwargs = {k: v for k, v in d.items() if k != "variant"}
        if cls is UnionSet:
            kwargs["members"] = tuple(build(m) for m in kwargs["members"])
        return cls(**kwargs)

    try:
        return build(json.loads(text))
    except (AttributeError, TypeError) as e:  # a non-object, a missing or extra field
        raise ValueError(f"malformed point-set document: {e}") from e


def pointset_to_json(spec: PointSet) -> str:
    return json.dumps(spec.to_json_dict(), sort_keys=True)
