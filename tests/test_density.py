"""Counting, windowed density estimates, transformation law, equidistribution."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborinv.density import (
    ExcludedResidueProduct,
    LatticePoints,
    PuncturedLattice,
    ShiftedLattice,
    UnionSet,
    count_in_box,
    density_transform_check,
    equidistribution_diagnostic,
    interval_count_bounds,
    lower_density_empirical,
    omega_density_formula,
    omega_spec,
    pointset_from_json,
    pointset_to_json,
)
from gaborinv.errors import InvalidMatrix, InvalidModulus, InvalidParameter
from gaborinv.lattice import Lattice2D, RationalMatrix2x2, SeparableLattice

GOLDEN = (math.sqrt(5) - 1) / 2


def brute_count_product_excluded(t_step, f_step, nu, center, R):
    """Enumeration oracle: scan integer index ranges directly."""
    cx, cy = center
    count = 0
    for i in range(math.floor((cx - R) / t_step) - 2, math.ceil((cx + R) / t_step) + 3):
        if not (cx - R - 1e-9 <= i * t_step <= cx + R + 1e-9):
            continue
        for j in range(
            math.floor((cy - R) / f_step) - 2, math.ceil((cy + R) / f_step) + 3
        ):
            if j % nu == 0:
                continue
            if cy - R - 1e-9 <= j * f_step <= cy + R + 1e-9:
                count += 1
    return count


# -- an enumeration oracle: each set as the lattices it is drawn from ---------------
# A piece is (basis, shift, keep): the points basis @ k + shift for the integer
# k = (k1, k2) with keep(k1, k2).  No signed sums and no closed-form ranges.

def lattice_points(basis, shift=(0.0, 0.0)):
    return [(np.asarray(basis, float), shift, lambda k1, k2: np.ones(k1.shape, bool))]


def punctured_points(basis):
    return [(np.asarray(basis, float), (0.0, 0.0), lambda k1, k2: (k1 != 0) | (k2 != 0))]


def product_points(t, f, nu):
    return [(np.diag([t, f]), (0.0, 0.0), lambda k1, k2: k2 % nu != 0)]


def oracle_count(pieces, center, R, M=np.eye(2)):
    """#{M p : p in pieces} in center + [-R, R]^2, each point tested directly.

    The library counts points up to a fuzz of 1e-9 in coordinates (times the
    step on a diagonal axis, at most 30 here); None when a point's excess over
    R lies between 1e-11 and 1e-7, where that fuzz or its rounding decides.
    """
    c = np.asarray(center, float)
    corners = c[:, None] + R * np.array([[-1, -1, 1, 1], [-1, 1, -1, 1]])
    total = 0
    for basis, shift, keep in pieces:
        A, s = M @ basis, M @ np.asarray(shift, float)
        k = np.linalg.solve(A, corners - s[:, None])
        lo, hi = np.floor(k.min(axis=1)) - 2, np.ceil(k.max(axis=1)) + 2
        k1, k2 = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1), indexing="ij")
        k1, k2 = k1.ravel(), k2.ravel()
        excess = np.abs(A @ np.stack([k1, k2]) + (s - c)[:, None]).max(axis=0) - R
        if np.any((excess > 1e-11) & (excess < 1e-7)):
            return None
        total += int(np.sum((excess <= 1e-11) & keep(k1, k2)))
    return total


def sheared(d1, d2, s1, s2):
    """diag(d1, d2) @ [[1 + s1 s2, s1], [s2, 1]]: determinant d1 d2."""
    return np.diag([d1, d2]) @ np.array([[1 + s1 * s2, s1], [s2, 1.0]])


def every_set(basis, shift, product):
    """Each of the five set classes with its oracle pieces."""
    sets = [
        (LatticePoints(basis), lattice_points(basis)),
        (ShiftedLattice(basis, shift), lattice_points(basis, shift)),
        (PuncturedLattice(basis), punctured_points(basis)),
        (ExcludedResidueProduct(*product), product_points(*product)),
    ]
    union = UnionSet((sets[1][0], sets[2][0], sets[3][0]))
    return sets + [(union, sets[1][1] + sets[2][1] + sets[3][1])]


steps = st.floats(0.25, 3.0)
shears = st.floats(-1.0, 1.0)
diagonal_bases = st.tuples(steps, st.sampled_from([-1.0, 1.0]), steps).map(
    lambda v: np.diag([v[0] * v[1], v[2]])
)
bases = st.one_of(diagonal_bases, st.builds(sheared, steps, steps, shears, shears))
maps = st.builds(sheared, st.floats(0.5, 2.0), st.floats(0.5, 2.0), shears, shears)
pairs = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(
    basis=bases,
    shift=pairs,
    product=st.tuples(steps, steps, st.integers(2, 5)),
    center=pairs,
    R=st.floats(0.25, 6.0),
    B=maps,
)
def test_every_set_and_its_image_count_what_enumeration_gives(basis, shift, product, center, R, B):
    for spec, pieces in every_set(basis, shift, product):
        want, want_moved = oracle_count(pieces, center, R), oracle_count(pieces, center, R, B)
        assume(want is not None and want_moved is not None)
        assert count_in_box(spec, center, R) == want, spec
        assert spec.transformed(B).count_in_box(center, R) == want_moved, spec


def probe_oracle(spec, pieces, R, grid, M=np.eye(2)):
    """The least oracle count over lower_density_empirical's probe centers, or
    None when the fuzz decides one of them."""
    p1, p2 = spec.period_cell()
    counts = [
        oracle_count(pieces, (i * p1 / grid, j * p2 / grid), R, M)
        for i in range(grid)
        for j in range(grid)
    ]
    return None if None in counts else min(counts)


@settings(max_examples=50, deadline=None)
@given(
    basis=bases,
    shift=pairs,
    product=st.tuples(steps, steps, st.integers(2, 5)),
    R=st.floats(0.25, 3.0),
    grid=st.integers(1, 4),
    B=maps,
)
def test_estimate_is_the_least_enumerated_count_at_the_probe_centers(
    basis, shift, product, R, grid, B
):
    for spec, pieces in every_set(basis, shift, product):
        moved = spec.transformed(B)
        want = probe_oracle(spec, pieces, R, grid)
        want_moved = probe_oracle(moved, pieces, R, grid, B)
        assume(want is not None and want_moved is not None)
        assert lower_density_empirical(spec, [R], grid)[0].theta == want / (2.0 * R) ** 2, spec
        theta_moved = lower_density_empirical(moved, [R], grid)[0].theta
        assert theta_moved == want_moved / (2.0 * R) ** 2, spec


@pytest.mark.parametrize("R", [0.3, 0.6, 1.0, 2.5])
def test_punctured_estimate_on_both_sides_of_the_origin_row(R):
    # k1 = (x - y)/2: the probe centers of the cell [0, 2) x [0, 2) lie on both
    # sides of the row k1 = 0, and the boxes with R < 1.6 hold the origin for
    # some centers only
    basis = np.array([[1.0, 1.0], [-1.0, 1.0]])
    spec = PuncturedLattice(basis)
    p1, p2 = spec.period_cell()
    k1 = [(i * p1 / 5 - j * p2 / 5) / 2 for i in range(5) for j in range(5)]
    assert min(k1) < 0 < max(k1)
    want = probe_oracle(spec, punctured_points(basis), R, 5)
    assert lower_density_empirical(spec, [R], 5)[0].theta == want / (2.0 * R) ** 2


@pytest.mark.filterwarnings("error")
def test_subnormal_shear_estimate_is_the_least_enumerated_count():
    basis = [[1.0, 5e-324], [0.0, 1.0]]
    want = probe_oracle(LatticePoints(basis), lattice_points(basis), 2.0, 4)
    assert lower_density_empirical(LatticePoints(basis), [2.0], 4)[0].theta == want / 16.0


class TestCountInBox:
    def test_unit_lattice_3x3(self):
        assert count_in_box(LatticePoints(np.eye(2)), (0, 0), 1.5) == 9

    def test_punctured(self):
        assert count_in_box(PuncturedLattice(np.eye(2)), (0, 0), 1.5) == 8

    @pytest.mark.parametrize("k, removed", [(1, 1), (2, 1), (3, 1), (2**21, 0)])
    def test_punctured_origin_uses_the_count_fuzz(self, k, removed):
        # at |c| + R = 2**23 the sheared rows' fuzz is 4 ulps = 7.5e-9, above
        # 1e-9: the full count takes the origin up to 4 ulps(R) off the edge.
        # The wide first column keeps the count to a dozen k1 rows.
        B = np.array([[2.0**20, 0.5], [0.0, 1.0]])
        R = 2.0**22
        center = (0.0, R + k * math.ulp(R))
        full = count_in_box(LatticePoints(B), center, R)
        assert count_in_box(PuncturedLattice(B), center, R) == full - removed

    def test_sheared_count_memory_is_bounded(self):
        # the k1 rows (about 3R here) are walked in chunks; held at once they
        # took 219 MiB under tracemalloc at R = 2**20.  The fuzz takes the rows
        # k2 = 0..2R: 2R + 1 points on each even row, 2R on each odd one.
        R = 2**20
        spec = PuncturedLattice(np.array([[1.0, 0.5], [0.0, 1.0]]))
        tracemalloc.start()
        try:
            n = count_in_box(spec, (0.0, R + 2 * math.ulp(R)), R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == (R + 1) * (2 * R + 1) + R * 2 * R - 1
        assert peak < 32 * 2**20

    def test_sheared_estimate_memory_is_bounded(self):
        # 16 centers times about 3R = 49k rows: held at once, those (center, row)
        # pairs would take a dozen arrays of 6 MiB each
        R, grid = 2.0**14, 4
        spec = PuncturedLattice(np.array([[1.0, 0.5], [0.0, 1.0]]))
        tracemalloc.start()
        try:
            theta = lower_density_empirical(spec, [R], grid)[0].theta
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rows k2 in cy + [-R, R] hold the k1 in cx - k2/2 + [-R, R]; every value
        # is dyadic, so the closed-form floor and ceil are exact; less the origin
        p1, p2 = spec.period_cell()
        counts = []
        for i in range(grid):
            for j in range(grid):
                cx, cy = i * p1 / grid, j * p2 / grid
                k2 = np.arange(math.ceil(cy - R), math.floor(cy + R) + 1)
                k1 = np.floor(cx + R - k2 / 2) - np.ceil(cx - R - k2 / 2) + 1
                counts.append(int(k1.sum()) - 1)
        assert theta == min(counts) / (2 * R) ** 2
        assert peak < 16 * 2**20

    def test_diagonal_estimate_memory_is_bounded(self):
        # 1024**2 = 1M probe centers: held at once, a count over them would take
        # a dozen arrays of 8 MiB each.  Off the grid lines a box of radius 2
        # holds 4 columns and 8 rows.
        spec = LatticePoints(np.diag([1.0, 0.5]))
        tracemalloc.start()
        try:
            theta = lower_density_empirical(spec, [2.0], 1024)[0].theta
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert theta == 4 * 8 / 4.0**2
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "exact, basis, counts",
        [
            (
                Lattice2D(RationalMatrix2x2([["1/2", "1/3"], [0, "5/4"]])),
                [[0.5, 1 / 3], [0.0, 1.25]],
                [61, 176, 960],
            ),
            (SeparableLattice("3/2", "5/7"), np.diag([1.5, 5 / 7]), [45, 105, 544]),
        ],
        ids=["Lattice2D", "SeparableLattice"],
    )
    def test_exact_lattice_counts_as_its_float_basis(self, exact, basis, counts):
        boxes = [((0.0, 0.0), 3.0), ((0.3, -0.7), 5.5), ((10.25, 4.5), 12.0)]
        for spec in (LatticePoints(exact), LatticePoints(basis)):
            assert [count_in_box(spec, c, R) for c, R in boxes] == counts

    @pytest.mark.parametrize("basis", [np.eye(2), [[1.0, 0.5], [0.0, 1.0]]], ids=["axes", "shear"])
    @pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_center_rejected(self, basis, center):
        # nan and inf raised an untyped ValueError, or on the shear an OverflowError
        with pytest.raises(InvalidParameter, match="center must be finite"):
            count_in_box(LatticePoints(basis), center, 2.0)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_shear_counts_without_overflow_warning(self):
        # dividing by the basis entry 5e-324 overflows to the interval's exact limit +-inf
        assert count_in_box(LatticePoints([[1.0, 5e-324], [0.0, 1.0]]), (0.3, 0.2), 2.0) == 16

    def test_excluded_residues_against_oracle(self):
        # (1/beta)Z x (1/alpha)(Z \ 2Z) with alpha = beta = 1
        spec = ExcludedResidueProduct(1.0, 1.0, 2)
        expected = brute_count_product_excluded(1.0, 1.0, 2, (0.0, 0.0), 2.5)
        assert expected == 10  # frozen from the oracle: 5 x-values, y in {-1, 1}
        assert count_in_box(spec, (0, 0), 2.5) == expected

    def test_excluded_residues_oracle_sweep(self):
        spec = ExcludedResidueProduct(1.4, 2 / 3, 3)
        for center in [(0.0, 0.0), (0.3, -0.7), (5.2, 1.9)]:
            for R in [1.0, 2.5, 7.3]:
                assert count_in_box(spec, center, R) == brute_count_product_excluded(
                    1.4, 2 / 3, 3, center, R
                )

    def test_sheared_lattice_against_point_scan(self):
        basis = np.array([[1.0, 0.7], [0.3, 1.0]])
        spec = LatticePoints(basis)
        R, center = 6.0, (0.4, -1.1)
        pts = 0
        for k1 in range(-30, 31):
            for k2 in range(-30, 31):
                x = basis @ np.array([k1, k2])
                if (
                    abs(x[0] - center[0]) <= R + 1e-9
                    and abs(x[1] - center[1]) <= R + 1e-9
                ):
                    pts += 1
        assert count_in_box(spec, center, R) == pts

    def test_shifted(self):
        spec = ShiftedLattice(np.eye(2), (0.5, 0.5))
        assert count_in_box(spec, (0.5, 0.5), 1.0) == 9

    def test_union_additive_over_disjoint(self):
        a = LatticePoints(np.diag([1.0, 1.0]))
        b = ShiftedLattice(np.diag([1.0, 1.0]), (0.5, 0.5))
        u = UnionSet((a, b))
        for R in [1.0, 2.5, 4.0]:
            assert count_in_box(u, (0.2, 0.1), R) == count_in_box(
                a, (0.2, 0.1), R
            ) + count_in_box(b, (0.2, 0.1), R)

    @pytest.mark.parametrize("R", [-1.0, -2.5])
    def test_negative_radius_counts_nothing_on_the_axes(self, R):
        # the method does not check R; an empty index range is 0 points, never fewer
        assert LatticePoints(np.diag([1.0, 0.5])).count_in_box((0.3, 0.2), R) == 0

    def test_boundary_points_count_as_inside(self):
        assert count_in_box(LatticePoints(np.eye(2)), (0, 0), 1.0) == 9

    def test_boundary_columns_at_large_radius(self):
        # near 1e9 the rounding of R / (1/7) is 1e-7, far above the 1e-9 fuzz
        spec = LatticePoints(np.diag([1 / 7, 0.7]))
        for k in range(980_000_000, 980_000_200):
            expected = (2 * k + 1) * (2 * (10 * k // 49) + 1)
            assert spec.count_in_box((0, 0), k * (1 / 7)) == expected, k

    def test_sheared_basis_matches_diagonal_at_large_radius(self):
        # both bases give the point set 300Z x 0.1Z; near R = 2e7 the rounding
        # of the sheared row's bounds exceeds the 1e-9 fuzz
        sheared = LatticePoints(np.array([[300.0, 0.0], [0.1, 0.1]]))
        diagonal = LatticePoints(np.diag([300.0, 0.1]))
        radii = [(200_000_000 + k) * 0.1 for k in range(100)]
        wrong = [
            R for R in radii if sheared.count_in_box((0, 0), R) != diagonal.count_in_box((0, 0), R)
        ]
        assert wrong == []


class TestSetFormulas:
    B = np.array([[1.1, -0.3], [0.2, 0.9]])
    PRODUCT = ExcludedResidueProduct(1.4, 2 / 3, 3)

    @pytest.mark.parametrize(
        "spec",
        [LatticePoints(B), ShiftedLattice(B, (0.3, -0.2)), PuncturedLattice(B)],
        ids=["lattice", "shifted", "punctured"],
    )
    def test_lattice_cell_and_density(self, spec):
        # the row sums |b_i1| + |b_i2|, and 1/|det|: one removed point or a shift changes neither
        assert spec.period_cell() == (1.1 + 0.3, 0.2 + 0.9)
        assert spec.analytic_density() == 1.0 / abs(np.linalg.det(self.B))
        assert type(spec.analytic_density()) is float

    def test_product_cell_and_density(self):
        assert self.PRODUCT.period_cell() == (1.4, 3 * (2 / 3))
        assert self.PRODUCT.analytic_density() == (1.0 / 1.4) * (1.0 / (2 / 3)) * (1.0 - 1.0 / 3)

    def test_union_cell_and_density(self):
        member = PuncturedLattice(self.B)
        union = UnionSet((member, self.PRODUCT))
        assert union.period_cell() == (max(1.1 + 0.3, 1.4), max(0.2 + 0.9, 3 * (2 / 3)))
        assert union.analytic_density() == member.analytic_density() + self.PRODUCT.analytic_density()
        assert type(union.analytic_density()) is float

    def test_transformed_sets_have_no_json_form(self):
        with pytest.raises(NotImplementedError):
            pointset_to_json(LatticePoints(self.B).transformed(np.eye(2)))


class TestPreconditions:
    @pytest.mark.parametrize(
        "make",
        [LatticePoints, PuncturedLattice, lambda b: ShiftedLattice(b, (0.5, 0.5))],
        ids=["lattice", "punctured", "shifted"],
    )
    @pytest.mark.parametrize(
        "basis, message",
        [
            ([[1.0, 2.0], [0.5, 1.0]], "singular"),
            ([[math.inf, 0.0], [0.0, 1.0]], "finite"),
            ([[math.nan, 0.0], [0.0, 1.0]], "finite"),
        ],
        ids=["singular", "inf", "nan"],
    )
    def test_every_lattice_class_checks_its_basis(self, make, basis, message):
        # the shifted and punctured classes used to fail only when they counted
        with pytest.raises(InvalidMatrix, match=message):
            make(np.array(basis))

    def test_basis_is_copied(self):
        # the set kept the caller's array, so zeroing it later made the checked basis singular
        basis = np.eye(2)
        spec = LatticePoints(basis)
        basis[0, 0] = 0.0
        assert count_in_box(spec, (0.0, 0.0), 1.5) == 9

    @pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
    def test_radius_must_be_positive_and_finite(self, R):
        spec = omega_spec(1.5, 5 / 7, 2)
        with pytest.raises(InvalidParameter, match="R must lie in"):
            count_in_box(spec, (0.0, 0.0), R)
        with pytest.raises(InvalidParameter, match="R must lie in"):
            lower_density_empirical(spec, [5.0, R], probe_grid=2)


class TestLowerDensity:
    def test_unit_lattice_window_bounds(self):
        est = lower_density_empirical(LatticePoints(np.eye(2)), [50.0], probe_grid=8)[0]
        assert (1 - 2 / 50) <= est.theta <= (1 + 2 / 50)

    def test_theta_bounds_invariant(self):
        # theta_R(Z^2) within [(1-1/R)^2, (1+1/R)^2] for R >= 2
        for R in [2.0, 5.0, 17.0, 60.0]:
            est = lower_density_empirical(LatticePoints(np.eye(2)), [R], probe_grid=8)[0]
            assert (1 - 1 / R) ** 2 <= est.theta <= (1 + 1 / R) ** 2

    def test_separable_lattice_converges(self):
        spec = LatticePoints(np.diag([1.5, 5 / 7]))
        est = lower_density_empirical(spec, [200.0], probe_grid=16)[0]
        assert abs(est.theta - est.analytic) / est.analytic < 0.05

    def test_omega_product_part_converges(self):
        spec = omega_spec(1.5, 5 / 7, 2).members[1]
        est = lower_density_empirical(spec, [200.0], probe_grid=16)[0]
        expected = 1.5 * (5 / 7) * (1 - 0.5)
        assert abs(est.analytic - expected) < 1e-12
        assert abs(est.theta - expected) / expected < 0.05

    def test_omega_union_matches_combined_formula(self):
        alpha, beta, nu = 1.5, 5 / 7, 2
        spec = omega_spec(alpha, beta, nu)
        est = lower_density_empirical(spec, [200.0], probe_grid=16)[0]
        target = omega_density_formula(alpha, beta, nu)
        assert abs(est.theta - target) / target < 0.05

    def test_gap_shrinks_with_R(self):
        spec = LatticePoints(np.diag([1.5, 5 / 7]))
        ests = lower_density_empirical(spec, [25.0, 100.0, 400.0], probe_grid=8)
        gaps = [e.gap for e in ests]
        assert gaps[2] < gaps[0]


class TestOmegaFormula:
    def test_plug_in(self):
        assert omega_density_formula(1.0, 1.0, 2) == pytest.approx(1.5)
        assert omega_density_formula(2.0, 1.0, 3) == pytest.approx(0.5 + 4 / 3)

    def test_sqrt2_bound_attained(self):
        # alpha*beta = sqrt(2), nu = 2: the bound >= sqrt(2) is met with equality
        val = omega_density_formula(math.sqrt(2.0), 1.0, 2)
        assert val == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_am_gm_lower_bound_on_grid(self):
        # value >= 2 sqrt(1 - 1/nu) >= sqrt(2) for nu >= 2
        for ab in np.linspace(0.1, 4.0, 20):
            for nu in range(2, 7):
                val = omega_density_formula(ab, 1.0, nu)
                assert val >= 2 * math.sqrt(1 - 1 / nu) - 1e-12
                assert val >= math.sqrt(2.0) - 1e-12

    def test_rejects_nu(self):
        with pytest.raises(InvalidModulus):
            omega_density_formula(1.0, 1.0, 1)


class TestTransformLaw:
    def test_identity(self):
        lhs, rhs = density_transform_check(LatticePoints(np.eye(2)), np.eye(2), 50.0, 8)
        assert lhs == pytest.approx(rhs, rel=0.05)

    @pytest.mark.parametrize(
        "B",
        [
            np.array([[1.0, 1.0], [0.0, 1.0]]),
            np.array([[2.0, 0.0], [0.0, 0.5]]),
            np.array([[2.0, 1.0], [1.0, 1.0]]),
        ],
    )
    def test_unit_determinant_cases(self, B):
        lhs, rhs = density_transform_check(LatticePoints(np.eye(2)), B, 100.0, 8)
        assert abs(lhs - rhs) / rhs < 0.05
        assert lhs == pytest.approx(1.0, rel=0.05)

    def test_nonunit_determinant(self):
        B = np.array([[2.0, 0.0], [0.0, 1.5]])
        lhs, rhs = density_transform_check(LatticePoints(np.eye(2)), B, 100.0, 8)
        assert abs(lhs - rhs) / rhs < 0.10

    def test_random_matrices_with_moderate_entries(self):
        # law within 10% at R >= 100 for entries in [1/2, 2]
        rng = np.random.default_rng(42)
        done = 0
        while done < 8:
            B = rng.uniform(0.5, 2.0, size=(2, 2)) * rng.choice([-1, 1], size=(2, 2))
            if abs(np.linalg.det(B)) < 0.3:
                continue
            done += 1
            lhs, rhs = density_transform_check(LatticePoints(np.eye(2)), B, 100.0, 8)
            assert abs(lhs - rhs) / rhs < 0.10

    def test_transformed_product_counts(self):
        spec = ExcludedResidueProduct(1.0, 1.0, 2)
        B = np.array([[1.0, 0.5], [0.0, 1.0]])
        moved = spec.transformed(B)
        # the shear maps (i, j), j odd, to (i + j/2, j): the rows j = -3, -1, 1, 3
        # of [-3, 3]^2 hold 6 points each
        assert moved.count_in_box((0, 0), 3.0) == 24
        assert moved.count_in_box((0, 0), 3.0) == oracle_count(product_points(1.0, 1.0, 2), (0, 0), 3.0, B)
        assert moved.analytic_density() == pytest.approx(spec.analytic_density())
        assert moved.period_cell() == (2.0, 2.0)  # the rows of B @ diag(1, 2)

    def test_singular_rejected(self):
        with pytest.raises(InvalidMatrix):
            density_transform_check(
                LatticePoints(np.eye(2)), np.array([[1.0, 1.0], [1.0, 1.0]]), 10.0
            )


class TestIntervalCounts:
    def test_endpoints_included(self):
        assert interval_count_bounds(1.0, 10.0) == (9.0, 11.0, 11)

    def test_beta_two(self):
        assert interval_count_bounds(2.0, 5.0) == (9.0, 11.0, 11)

    def test_rational_beta_against_enumeration(self):
        beta, R = 5 / 7, 14.0
        exact = sum(1 for n in range(0, 100) if n / beta <= R + 1e-9)
        lo, hi, got = interval_count_bounds(beta, R)
        assert (lo, hi) == (beta * R - 1, beta * R + 1)
        assert got == exact == 11

    def test_radius_inside_the_fuzz_is_a_typed_error(self):
        # the fuzz counts the point 10, beyond the upper bound beta*R + 1
        with pytest.raises(InvalidParameter):
            interval_count_bounds(1.0, 10 - 5e-10)


class TestEquidistribution:
    def test_irrational_direction_covers(self):
        cov, disc = equidistribution_diagnostic(
            (1.0, math.sqrt(2.0)), SeparableLattice(1, 1), GOLDEN, 10000
        )
        assert cov < 0.05
        assert disc < 0.01

    def test_discrepancy_decreases(self):
        _, d_small = equidistribution_diagnostic(
            (math.sqrt(2.0), 1.0), SeparableLattice(1, 1), GOLDEN, 100
        )
        _, d_large = equidistribution_diagnostic(
            (math.sqrt(2.0), 1.0), SeparableLattice(1, 1), GOLDEN, 10000
        )
        assert d_large < d_small

    def test_rational_line_stays_sparse(self):
        cov, _ = equidistribution_diagnostic(
            (1.0, 0.0), SeparableLattice(1, 1), GOLDEN, 10000
        )
        assert cov > 0.1

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            equidistribution_diagnostic((0.0, 0.0), SeparableLattice(1, 1), GOLDEN, 10)

    @pytest.mark.parametrize(
        "z, t_step", [((1.0, 1.0), math.nan), ((1.0, 1.0), math.inf), ((math.nan, 1.0), GOLDEN),
                      ((1.0, 1.0), 1e308), ((0.0, 1.0), math.inf)],
    )
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_samples(self, z, t_step):
        # j * t_step * z overflowed or was NaN; the modulo warned and scipy raised a ValueError
        with pytest.raises(InvalidParameter, match="must be finite"):
            equidistribution_diagnostic(z, SeparableLattice(1, 1), t_step, 10)


class TestJsonRoundTrip:
    def test_omega_round_trip(self):
        spec = omega_spec(1.5, 5 / 7, 2)
        text = pointset_to_json(spec)
        back = pointset_from_json(text)
        for R in [1.0, 3.0, 10.0]:
            assert count_in_box(back, (0.1, 0.2), R) == count_in_box(spec, (0.1, 0.2), R)

    def test_variant_names(self):
        spec = omega_spec(1.0, 1.0, 2)
        text = pointset_to_json(spec)
        assert "punctured_lattice" in text
        assert "product_with_excluded_residues" in text
        assert "union" in text

    B = np.array([[1.1, 0.3], [0.2, 0.9]])
    PRODUCT_TEXT = (
        '{"f_step": 0.6666666666666666, "nu": 3, "t_step": 1.4, '
        '"variant": "product_with_excluded_residues"}'
    )

    @pytest.mark.parametrize(
        "spec, text",
        [
            (LatticePoints(B), '{"basis": [[1.1, 0.3], [0.2, 0.9]], "variant": "lattice"}'),
            (
                ShiftedLattice(B, (0.5, -0.25)),
                '{"basis": [[1.1, 0.3], [0.2, 0.9]], "shift": [0.5, -0.25], '
                '"variant": "shifted_lattice"}',
            ),
            (
                PuncturedLattice(B),
                '{"basis": [[1.1, 0.3], [0.2, 0.9]], "variant": "punctured_lattice"}',
            ),
            (ExcludedResidueProduct(1.4, 2 / 3, 3), PRODUCT_TEXT),
            (
                UnionSet(
                    (
                        PuncturedLattice(B),
                        UnionSet((LatticePoints(np.eye(2)), ExcludedResidueProduct(1.4, 2 / 3, 3))),
                    )
                ),
                '{"members": [{"basis": [[1.1, 0.3], [0.2, 0.9]], "variant": "punctured_lattice"}, '
                '{"members": [{"basis": [[1.0, 0.0], [0.0, 1.0]], "variant": "lattice"}, '
                + PRODUCT_TEXT
                + '], "variant": "union"}], "variant": "union"}',
            ),
        ],
        ids=["lattice", "shifted", "punctured", "product", "nested-union"],
    )
    def test_json_text_is_pinned(self, spec, text):
        assert pointset_to_json(spec) == text
        assert pointset_to_json(pointset_from_json(text)) == text

    def test_unknown_variant_is_rejected(self):
        with pytest.raises(ValueError, match="unknown point-set variant"):
            pointset_from_json('{"variant": "circle", "radius": 1.0}')
