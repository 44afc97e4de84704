"""Exact lattice algebra: every identity here holds with zero tolerance."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaborinv.errors import InvalidIndex, InvalidLattice, InvalidOrder, NotAnExtraShift
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
