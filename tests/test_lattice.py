"""Exact lattice algebra: every identity here holds with zero tolerance."""

import random
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaborinv.errors import (
    InvalidIndex, InvalidLattice, InvalidOrder, InvalidParameter, NotAnExtraShift
)
from gaborinv.lattice import (
    Lattice2D,
    RationalMatrix2x2,
    SeparableLattice,
    adjoint_lattice,
    as_fraction,
    coset_decomposition,
    density,
    lattice_from_json,
    lattice_to_json,
    order_in_lattice,
    reduce_invariant_shift,
    separate,
)

F = Fraction


def lat(rows):
    return Lattice2D(RationalMatrix2x2(rows))


def brute_force_order(z, lattice, n_max):
    """Independent oracle: scan n = 1..n_max for n*z in the lattice."""
    for n in range(1, n_max + 1):
        if lattice.contains((n * as_fraction(z[0]), n * as_fraction(z[1]))):
            return n
    return None


class TestDensity:
    def test_unit_lattice(self):
        assert density(lat([[1, 0], [0, 1]])) == 1

    def test_diagonal(self):
        assert density(lat([["3/2", 0], [0, "5/7"]])) == F(14, 15)

    def test_unimodular(self):
        assert density(lat([[2, 1], [1, 1]])) == 1

    def test_singular_rejected(self):
        with pytest.raises(InvalidLattice):
            lat([[1, 2], [2, 4]])


class TestSeparate:
    def test_already_separable(self):
        C, sep = separate(lat([[2, 0], [0, "1/2"]]))
        assert C == RationalMatrix2x2.identity()
        assert (sep.alpha, sep.beta) == (2, F(1, 2))

    def test_unit_shear_input(self):
        l0 = lat([[1, 1], [0, 1]])
        C, sep = separate(l0)
        assert C.det() == 1
        assert (sep.alpha, sep.beta) == (1, 1)
        transformed = Lattice2D(C @ l0.basis)
        assert transformed.same_lattice(sep.as_lattice())

    def test_random_rational_bases(self):
        rng = random.Random(20240817)
        trials = 0
        while trials < 500:
            rows = [
                [
                    F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(2)
                ]
                for _ in range(2)
            ]
            m = RationalMatrix2x2(rows)
            if m.det() == 0:
                continue
            trials += 1
            l0 = Lattice2D(m)
            C, sep = separate(l0)
            assert C.det() == 1
            assert Lattice2D(C @ m).same_lattice(sep.as_lattice())

    def test_density_preserved(self):
        l0 = lat([["3/4", "2/3"], ["1/5", 2]])
        C, sep = separate(l0)
        assert density(l0) == sep.density()

    @pytest.mark.parametrize(
        "rows, shear, alpha, beta",
        [
            ([[1, 1], [0, 1]], [[1, -1], [0, 1]], 1, 1),  # bottom-left entry already zero
            ([[0, 1], [1, 0]], [[1, 0], [0, 1]], 1, 1),  # bottom-right entry zero
            ([[2, 0], [3, 5]], [[1, -4], [0, 1]], 10, 1),
            ([[-2, 3], [4, -7]], [[1, 1], [0, 1]], 2, 1),
            ([[0, -3], [2, 5]], [[1, 3], [0, 1]], 6, 1),
            ([["3/2", "1/3"], ["2/5", "7/4"]], [[1, 370], [0, 1]], F(299, 6), F(1, 20)),
        ],
    )
    def test_pinned_outputs(self, rows, shear, alpha, beta):
        C, sep = separate(lat(rows))
        assert C == RationalMatrix2x2(shear)
        assert (sep.alpha, sep.beta) == (alpha, beta)


class TestReduceInvariantShift:
    def check_exact(self, a, b, r, s, m):
        """The three zero-tolerance identities of the reduction."""
        res = reduce_invariant_shift(a, b, r, s, m)
        a, b = as_fraction(a), as_fraction(b)
        assert res.B.det() == 1
        if res.fourier_swap:
            shift = (as_fraction(s) * b / m, as_fraction(r) * a / m)
        else:
            shift = (as_fraction(r) * a / m, as_fraction(s) * b / m)
        image = res.B.apply(shift)
        assert image == (F(res.d) * res.alpha / res.m, 0)
        assert 1 <= res.d < res.m
        target = SeparableLattice(res.alpha, res.beta).as_lattice()
        moved = Lattice2D(res.B @ res.input_lattice().basis)
        assert moved.same_lattice(target)
        return res

    def test_generic_example(self):
        res = self.check_exact(1, 1, 2, 3, 5)
        assert res.case == "generic"
        assert res.d == 1

    def test_time_only_example(self):
        res = self.check_exact(1, 1, 1, 0, 2)
        assert res.case == "time_only"
        assert res.reduced_shift() == (F(1, 2), 0)

    def test_gcd_example(self):
        res = self.check_exact(2, 3, 4, 6, 9)
        assert res.case == "generic"
        assert res.d == 2
        assert res.B.apply((F(8, 9), 2)) == (2 * res.alpha / 9, 0)

    def test_fourier_swap_branch(self):
        res = self.check_exact(2, 3, 0, 4, 6)
        assert res.case == "fourier_swap"
        assert res.fourier_swap
        assert (res.alpha, res.beta) == (3, 2)
        assert res.m == 3 and res.d == 2

    @pytest.mark.parametrize("a, b", [(0, 1), (1, -2), ("-3/2", "5/7")])
    def test_steps_must_be_positive(self, a, b):
        with pytest.raises(InvalidParameter, match="lattice steps a, b must be positive"):
            reduce_invariant_shift(a, b, 1, 2, 5)

    def test_time_only_records_reduced_order(self):
        res = self.check_exact(1, 1, 4, 0, 6)
        assert res.m == 3 and res.d == 2  # 4/6 reduces to 2/3

    @pytest.mark.parametrize("a, b", [(1, 1), ("3/2", "5/7")])
    def test_bezout_pair(self, a, b):
        # 1 <= rho_t <= rho and rho*sigma_t - sigma*rho_t = 1 fix the pair uniquely
        pinned = {(1, 11, 12): (1, 12), (5, 7, 12): (2, 3), (3, 1, 4): (2, 1)}
        for m in range(2, 13):
            for r in range(1, m):
                for s in range(1, m):
                    bz = reduce_invariant_shift(a, b, r, s, m).to_json_dict()["bezout"]
                    rho, sigma, rho_t, sigma_t = (
                        bz[k] for k in ("rho", "sigma", "rho_tilde", "sigma_tilde")
                    )
                    assert 1 <= rho_t <= rho
                    assert rho * sigma_t - sigma * rho_t == 1
                    assert pinned.get((r, s, m), (rho_t, sigma_t)) == (rho_t, sigma_t)

    def test_rejects_zero_shift(self):
        with pytest.raises(NotAnExtraShift):
            reduce_invariant_shift(1, 1, 0, 0, 5)

    def test_rejects_small_m(self):
        with pytest.raises(InvalidOrder):
            reduce_invariant_shift(1, 1, 1, 0, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_invariant_shift(1, 1, 5, 1, 5)

    def test_results_stay_small(self):
        """4000 generic reductions, the count of one benchmark pass, hold under
        3 MiB: a faster construction may not give each result a larger layout."""
        rng = random.Random(30)
        args = []
        for _ in range(4000):
            m = rng.randint(2, 40)
            a, b = (F(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(2))
            args.append((a, b, rng.randrange(1, m), rng.randrange(1, m), m))
        tracemalloc.start()
        try:
            results = [reduce_invariant_shift(*x) for x in args]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(res.case == "generic" for res in results)
        assert held < 3 * 2**20

    def test_randomized_exactness(self):
        rng = random.Random(4355)
        for _ in range(300):
            m = rng.randint(2, 50)
            r, s = rng.randint(0, m - 1), rng.randint(0, m - 1)
            if (r, s) == (0, 0):
                continue
            a = F(rng.randint(1, 12), rng.randint(1, 12))
            b = F(rng.randint(1, 12), rng.randint(1, 12))
            self.check_exact(a, b, r, s, m)


class TestAdjoint:
    def test_self_adjoint(self):
        assert adjoint_lattice(SeparableLattice(1, 1)) == SeparableLattice(1, 1)

    def test_definition(self):
        assert adjoint_lattice(SeparableLattice(2, 3)) == SeparableLattice(F(1, 3), F(1, 2))
        assert adjoint_lattice(SeparableLattice(F(3, 2), F(5, 7))) == SeparableLattice(
            F(7, 5), F(2, 3)
        )

    @given(
        st.fractions(min_value="1/20", max_value=20, max_denominator=50),
        st.fractions(min_value="1/20", max_value=20, max_denominator=50),
    )
    def test_involution(self, al, be):
        sep = SeparableLattice(al, be)
        assert adjoint_lattice(adjoint_lattice(sep)) == sep


class TestOrder:
    def test_lcm_case(self):
        assert order_in_lattice((F(1, 2), F(1, 3)), lat([[1, 0], [0, 1]]), 10) == 6

    def test_lattice_point(self):
        assert order_in_lattice((1, 0), lat([[1, 0], [0, 1]]), 10) == 1

    def test_basis_coordinates_example(self):
        # z = (1/6, 2/5) in basis coordinates of diag(3/2, 5/7)
        base = lat([["3/2", 0], [0, "5/7"]])
        z = base.basis.apply((F(1, 6), F(2, 5)))
        expected = brute_force_order(z, base, 60)  # independent scan oracle
        assert expected == 30
        assert order_in_lattice(z, base, 60) == expected

    def test_absent_when_beyond_n_max(self):
        assert order_in_lattice((F(1, 7), 0), lat([[1, 0], [0, 1]]), 6) is None

    @pytest.mark.parametrize("z", [(1, 2, 3), (F(1, 2),), (), 5, None])
    def test_rejects_a_z_that_is_not_a_pair(self, z):
        with pytest.raises(InvalidParameter, match="z must be a pair of exact rationals"):
            order_in_lattice(z, lat([[1, 0], [0, 1]]), 10)

    def test_rejects_a_float_entry(self):
        with pytest.raises(TypeError, match="exact rational"):
            order_in_lattice((1.5, 0), lat([[1, 0], [0, 1]]), 10)

    def test_matches_brute_force_small_denominators(self):
        """Exact order matches the scan for all denominators up to 20."""
        unit = lat([[1, 0], [0, 1]])
        for p in range(0, 5):
            for q in range(1, 21):
                for u in range(0, 5):
                    for v in range(1, 21, 3):
                        z = (F(p, q), F(u, v))
                        got = order_in_lattice(z, unit, 420)
                        assert got == brute_force_order(z, unit, 420)


@pytest.mark.parametrize("v", ["12", b"12", (0, 0, 5)], ids=["str", "bytes", "triple"])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: RationalMatrix2x2.identity().apply(v),
        lambda v: lat([[1, 0], [0, 1]]).contains(v),
        lambda v: order_in_lattice(v, lat([[1, 0], [0, 1]]), 10),
    ],
    ids=["apply", "contains", "order"],
)
def test_a_string_bytes_or_triple_is_not_a_pair(call, v):
    """A two-character str or bytes used to unpack into two one-digit rationals."""
    with pytest.raises(InvalidParameter, match="must be a pair of exact rationals"):
        call(v)


class TestCosets:
    def test_trivial(self):
        assert coset_decomposition(SeparableLattice(1, 1), 1) == [(0, 0)]

    def test_three_cosets(self):
        assert coset_decomposition(SeparableLattice(1, 1), 3) == [
            (0, 0),
            (F(1, 3), 0),
            (F(2, 3), 0),
        ]

    def test_scaled(self):
        assert coset_decomposition(SeparableLattice(2, 5), 2) == [(0, 0), (1, 0)]

    def test_rejects_bad_q(self):
        with pytest.raises(InvalidIndex):
            coset_decomposition(SeparableLattice(1, 1), 0)

    def test_cosets_tile_refined_lattice(self):
        sep = SeparableLattice(F(3, 2), F(5, 7))
        q = 4
        reps = coset_decomposition(sep, q)
        refined = Lattice2D(RationalMatrix2x2.diagonal(sep.alpha / q, sep.beta))
        coarse = sep.as_lattice()
        for k, rep in enumerate(reps):
            assert rep == (k * sep.alpha / q, 0)
            assert refined.contains(rep)
        # distinct modulo the coarse lattice
        for i in range(q):
            for j in range(i + 1, q):
                diff = (reps[i][0] - reps[j][0], reps[i][1] - reps[j][1])
                assert not coarse.contains(diff)


class TestInvariantsAndJson:
    @given(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=200)
    def test_density_invariant_under_unimodular(self, vals):
        m = RationalMatrix2x2([[vals[0], vals[1]], [vals[2], vals[3]]])
        if m.det() == 0:
            return
        l0 = Lattice2D(m)
        shear = RationalMatrix2x2([[1, 3], [0, 1]])
        flip = RationalMatrix2x2([[0, 1], [-1, 0]])
        for u in (shear, flip, shear @ flip):
            assert density(Lattice2D(u @ m)) == density(l0)

    def test_json_round_trip(self):
        l0 = lat([["3/2", "-1/3"], [0, "5/7"]])
        text = lattice_to_json(l0)
        assert '"basis"' in text and "3/2" in text
        assert lattice_from_json(text).same_lattice(l0)

    def test_lattice_equality_detects_difference(self):
        assert not lat([[1, 0], [0, 1]]).same_lattice(lat([[2, 0], [0, 1]]))
        assert lat([[1, 0], [0, 1]]).same_lattice(lat([[1, 5], [0, 1]]))


class TestNumpyIntegers:
    """A numpy integer is an exact rational, as the integer parameters already are."""

    def test_separable_lattice(self):
        sep = SeparableLattice(np.int64(2), 1)
        assert (sep.alpha, sep.beta) == (2, 1) and type(sep.alpha) is Fraction

    def test_reduction(self):
        want = reduce_invariant_shift(48, 40, 1, 0, 3)
        assert reduce_invariant_shift(np.int64(48), 40, 1, 0, 3) == want

    def test_order(self):
        assert order_in_lattice((np.int64(1), F(1, 3)), lat([[1, 0], [0, 1]]), 10) == 3

    @pytest.mark.parametrize("x", [1.5, 2.0, np.float64(2.0)])
    def test_floats_are_rejected(self, x):
        with pytest.raises(TypeError, match="exact rational"):
            as_fraction(x)


# -- oracle: the integer kernels against plain Fraction formulas ---------------------
# Rationals of both signs, with numerators and denominators past 2**64.

def o_det(m):
    (a, b), (c, d) = m
    return a * d - b * c


def o_matmul(m, n):
    return [[sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def o_inv(m):
    (a, b), (c, d) = m
    det = o_det(m)
    return [[d / det, -b / det], [-c / det, a / det]]


def o_apply(m, v):
    return tuple(m[i][0] * v[0] + m[i][1] * v[1] for i in range(2))


def o_integral(values):
    return all(v.denominator == 1 for v in values)


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


big = st.integers(-(2**70), 2**70)
rationals = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(F, big, st.integers(1, 2**70)),
)
positive = st.builds(F, st.integers(1, 2**70), st.integers(1, 2**70)) | st.fractions(
    min_value="1/12", max_value=12, max_denominator=12
)
matrices = st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2)
invertible = matrices.filter(lambda m: o_det(m) != 0)


class TestIntegerKernelsOracle:
    @settings(max_examples=200)
    @given(invertible, matrices, st.tuples(rationals, rationals))
    def test_matrix_kernels(self, rows, other, v):
        m, n = RationalMatrix2x2(rows), RationalMatrix2x2(other)
        assert m.det() == o_det(rows) and type(m.det()) is Fraction
        for got, want in ((m.inv(), o_inv(rows)), (m @ n, o_matmul(rows, other))):
            assert [list(row) for row in got.entries] == want
            assert all_fractions(x for row in got.entries for x in row)
        assert m.apply(v) == o_apply(rows, v) and all_fractions(m.apply(v))
        lattice = Lattice2D(m)
        assert lattice.contains(v) == o_integral(o_apply(o_inv(rows), v))
        assert density(lattice) == 1 / abs(o_det(rows)) and type(density(lattice)) is Fraction
        if o_det(other) != 0:
            u = o_matmul(o_inv(rows), other)
            want = o_integral(x for row in u for x in row) and abs(o_det(u)) == 1
            assert lattice.same_lattice(Lattice2D(n)) == want

    @settings(max_examples=100)
    @given(invertible)
    def test_separate(self, rows):
        C, sep = separate(Lattice2D(RationalMatrix2x2(rows)))
        assert C.det() == 1 and all_fractions(x for row in C.entries for x in row)
        assert all_fractions((sep.alpha, sep.beta))
        moved = o_matmul([list(row) for row in C.entries], rows)
        assert Lattice2D(RationalMatrix2x2(moved)).same_lattice(sep.as_lattice())

    @given(positive, positive, st.integers(1, 12))
    def test_separable_kernels(self, al, be, q):
        sep = SeparableLattice(al, be)
        assert sep.density() == 1 / (al * be) and type(sep.density()) is Fraction
        adj = adjoint_lattice(sep)
        assert (adj.alpha, adj.beta) == (1 / be, 1 / al) and all_fractions((adj.alpha, adj.beta))
        reps = coset_decomposition(sep, q)
        assert reps == [(k * al / q, 0) for k in range(q)]
        assert all_fractions(x for rep in reps for x in rep)

    @settings(max_examples=200)
    @given(invertible, st.tuples(rationals, rationals), st.integers(1, 2**80))
    @example([[F(2**65 + 1, 3), F(0)], [F(-1), F(5, 2**66)]], (F(0), F(0)), 1)
    @example([[F(0), F(1)], [F(1), F(0)]], (F(1, 2**65), F(-7, 3)), 10)
    def test_order(self, rows, z, n_max):
        # basis^{-1} z in plain Fractions; its order is the lcm of the denominators
        w = o_apply(o_inv(rows), z)
        want = lcm(w[0].denominator, w[1].denominator)
        got = order_in_lattice(z, Lattice2D(RationalMatrix2x2(rows)), n_max)
        assert got == (want if want <= n_max else None)

    @settings(max_examples=200)
    @given(positive, positive, st.integers(2, 60), st.data())
    def test_reduction(self, a, b, m, data):
        r, s = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        if (r, s) == (0, 0):
            return
        res = reduce_invariant_shift(a, b, r, s, m)
        if r and s:
            rho, sigma, rho_t, sigma_t = res.rho, res.sigma, res.rho_t, res.sigma_t
            B = [[sigma_t * b / (rho_t * a), -1], [-sigma * rho_t, (a / b) * rho * rho_t]]
            assert (res.alpha, res.beta) == (b / rho_t, rho_t * a)
        else:
            B = [[1, 0], [0, 1]]
            assert (res.alpha, res.beta) == ((b, a) if r == 0 else (a, b))
        assert [list(row) for row in res.B.entries] == B
        assert all_fractions([res.alpha, res.beta, *res.B.entries[0], *res.B.entries[1]])
        assert res.reduced_shift() == (res.d * res.alpha / res.m, 0)
        assert all_fractions(res.reduced_shift())


class TestFastConstruction:
    """The results of reduce_invariant_shift, separate and adjoint_lattice are
    built without the dataclass __init__; they must act as the constructor's."""

    @staticmethod
    def results():
        sep = SeparableLattice(F(3, 2), F(5, 7))
        for r, s in ((4, 6), (3, 0), (0, 6)):
            yield reduce_invariant_shift("3/2", "5/7", r, s, 9)
        yield separate(lat([["3/2", "1/3"], ["2/5", "7/4"]]))[1]
        yield adjoint_lattice(sep)

    def test_equal_and_hash_like_the_constructor(self):
        for res in self.results():
            public = type(res)(**{f.name: getattr(res, f.name) for f in fields(res)})
            assert res == public and hash(res) == hash(public) and repr(res) == repr(public)

    def test_frozen(self):
        for res in self.results():
            with pytest.raises(FrozenInstanceError):
                res.alpha = F(1)

    def test_replace_builds_and_validates(self):
        red, _, _, sep, adj = self.results()
        assert replace(red, d=red.d + 1).d == red.d + 1
        assert replace(sep, beta=F(1, 3)) == SeparableLattice(sep.alpha, F(1, 3))
        for s in (sep, adj):
            with pytest.raises(InvalidLattice):
                replace(s, alpha=0)
