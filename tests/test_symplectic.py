"""Metaplectic generators, covariance, and system transport."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaborinv import symplectic
from gaborinv.errors import (
    InvalidParameter,
    NotSymplectic,
    UnsupportedLength,
    UnsupportedTransport,
)
from gaborinv.gabor import (
    FiniteGaborSystem,
    frame_bounds,
    gabor_matrix,
    orthonormal_range,
    periodized_gaussian,
    tf_shift,
)
from gaborinv.symplectic import (
    GeneralGaborSystem,
    covariance_residual,
    metaplectic_from_generators,
    rho_operator,
    transport_system,
)

J = [[0, -1], [1, 0]]
SHEAR1 = [[1, 0], [1, 1]]
SHEAR2 = [[1, 0], [3, 1]]
COMPOSITE = [[-2, -1], [1, 0]]  # J @ SHEAR2 with c = 2


def max_residual(op):
    L = op.L
    return max(
        covariance_residual(op, (t, m)) for t in range(L) for m in range(L)
    )


class TestConstruction:
    def test_identity_is_empty_product(self):
        op = metaplectic_from_generators([[1, 0], [0, 1]], 7)
        assert op.factors == ()
        assert np.allclose(op.unitary, np.eye(7))

    def test_dft_generator(self):
        op = metaplectic_from_generators(J, 5)
        assert op.factorization_trace() == [{"type": "dft"}]
        assert np.allclose(op.unitary.conj().T @ op.unitary, np.eye(5), atol=1e-12)

    def test_chirp_generator(self):
        op = metaplectic_from_generators(SHEAR1, 7)
        assert op.factorization_trace() == [{"type": "chirp", "c": 1}]
        assert np.allclose(np.abs(np.diag(op.unitary)), 1.0)

    def test_rejects_non_symplectic(self):
        with pytest.raises(NotSymplectic):
            metaplectic_from_generators([[2, 0], [0, 1]], 7)

    def test_rejects_determinant_lost_in_float_rounding(self):
        # det = 2**60 + 1 = 2 (mod 3); as a float it rounds to 2**60 = 1 (mod 3)
        with pytest.raises(NotSymplectic):
            metaplectic_from_generators([[2**30, 1], [-1, 2**30]], 3)

    def test_failed_factorization_is_a_typed_error(self, monkeypatch):
        # a wrong DFT matrix leaves a residue; the final check must raise, not assert
        monkeypatch.setattr(symplectic, "_J", ((1, 0), (0, 1)))
        with pytest.raises(NotSymplectic, match="residue"):
            metaplectic_from_generators([[2, 1], [1, 1]], 7)

    def test_rejects_non_integral_entries(self):
        # an int64 cast truncated 1.5 to 1 and accepted the identity
        with pytest.raises(ValueError, match="integer matrix"):
            metaplectic_from_generators([[1.5, 0], [0, 1]], 7)

    def test_entries_beyond_int64_are_reduced_exactly(self):
        # 2**63 = 1 (mod 7): an int64 cast raised OverflowError
        op = metaplectic_from_generators([[2**63, 1], [-1, 0]], 7)
        assert op.matrix.tolist() == [[1, 1], [6, 0]]
        assert max_residual(op) < 1e-10

    def test_even_length_rejected_for_shears(self):
        with pytest.raises(UnsupportedLength):
            metaplectic_from_generators(SHEAR1, 8)

    def test_even_length_dft_allowed(self):
        op = metaplectic_from_generators(J, 12)
        assert max(covariance_residual(op, (t, m)) for t in range(12) for m in range(12)) < 1e-10

    def test_every_unitary_is_unitary(self):
        for L in (5, 7, 9):
            for B in (J, SHEAR1, SHEAR2, COMPOSITE):
                U = metaplectic_from_generators(B, L).unitary
                assert np.linalg.norm(U.conj().T @ U - np.eye(L)) < 1e-10


class TestCovariance:
    def test_zero_shift_exact(self):
        op = metaplectic_from_generators(COMPOSITE, 9)
        assert covariance_residual(op, (0, 0)) < 1e-14

    @pytest.mark.parametrize("L", [5, 7, 9, 15])
    @pytest.mark.parametrize("B", [J, SHEAR1, SHEAR2, COMPOSITE])
    def test_exhaustive_grid(self, L, B):
        op = metaplectic_from_generators(B, L)
        assert max_residual(op) < 1e-10

    def test_random_sl2_words(self):
        rng = np.random.default_rng(7)
        for L in (5, 9):
            M = np.eye(2, dtype=np.int64)
            for _ in range(6):
                c = int(rng.integers(0, L))
                M = M @ np.array([[1, 0], [c, 1]], dtype=np.int64)
                M = M @ np.array(J, dtype=np.int64)
                M %= L
            op = metaplectic_from_generators(M, L)
            assert max_residual(op) < 1e-10

    def test_shift_beyond_int64_is_reduced_exactly(self):
        # B z in int64 wrapped for z = (2**62, 2**62) and gave a residual of 1.414
        op = metaplectic_from_generators([[2, 1], [3, 2]], 7)
        z = (2**62, 2**62)
        assert covariance_residual(op, z) < 1e-10
        assert covariance_residual(op, z) == pytest.approx(
            covariance_residual(op, (z[0] % 7, z[1] % 7)), abs=1e-15
        )

    def test_non_integral_shift_rejected(self):
        # int() truncated (1.5, 0.7) to (1, 0) and returned its residual, 7.6e-16
        op = metaplectic_from_generators([[2, 1], [3, 2]], 7)
        with pytest.raises(ValueError, match="integer pair"):
            covariance_residual(op, (1.5, 0.7))

    def test_wrong_phase_convention_fails(self):
        # chirp missing the (L+1)/2 half-inverse: e^{i pi c n^2 / L}
        L = 7
        n = np.arange(L)
        bad = np.diag(np.exp(1j * np.pi * n * n / L))
        good = metaplectic_from_generators(SHEAR1, L)
        corrupted = type(good)(
            matrix=good.matrix, unitary=bad, L=L, factors=good.factors
        )
        assert max_residual(corrupted) > 1e-2

    def test_rho_halves_the_phase(self):
        L = 9
        R = rho_operator(L, 2, 3)
        P = tf_shift(np.eye(L, dtype=complex)[:, 0], 2, 3)
        assert np.allclose(R[:, 0], np.exp(1j * np.pi * 6 * (L + 1) / L) * P)


class TestTransport:
    def test_identity_transport(self):
        g = periodized_gaussian(15, np.pi)
        sys = FiniteGaborSystem(15, 3, 5, g)
        op = metaplectic_from_generators([[1, 0], [0, 1]], 15)
        out = transport_system(op, sys)
        assert isinstance(out, FiniteGaborSystem)
        assert (out.a, out.b) == (3, 5)
        assert np.allclose(out.window, g)

    def test_dft_swaps_steps(self):
        g = periodized_gaussian(15, np.pi)
        sys = FiniteGaborSystem(15, 3, 5, g)
        op = metaplectic_from_generators(J, 15)
        out = transport_system(op, sys)
        assert isinstance(out, FiniteGaborSystem)
        assert (out.a, out.b) == (5, 3)

    def test_span_maps_by_unitary(self):
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 3, 5, g)
        op = metaplectic_from_generators(COMPOSITE, L)
        out = transport_system(op, sys)
        Din = gabor_matrix(sys)
        span_in = orthonormal_range(Din)
        if isinstance(out, FiniteGaborSystem):
            Dout = gabor_matrix(out)
        else:
            Dout = out.system_matrix()
        span_out = orthonormal_range(Dout)
        mapped = op.unitary @ span_in.blocks[0][:, : span_in.rank]
        # principal angles via the projected Gram: equality of subspaces
        q_out = span_out.blocks[0][:, : span_out.rank]
        s = np.linalg.svd(q_out.conj().T @ mapped, compute_uv=False)
        assert span_out.rank == span_in.rank
        assert np.all(s > 1 - 1e-8)

    def test_shear_preserves_frame_bounds(self):
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 3, 5, g)
        op = metaplectic_from_generators(SHEAR2, L)
        out = transport_system(op, sys)
        fb_in = frame_bounds(sys)
        if isinstance(out, FiniteGaborSystem):
            fb_out = frame_bounds(out)
            assert fb_out.lower == pytest.approx(fb_in.lower, abs=1e-8)
            assert fb_out.upper == pytest.approx(fb_in.upper, abs=1e-8)
        else:
            G = out.system_matrix()
            lam = np.linalg.eigvalsh(G @ G.conj().T)
            assert lam[-1] == pytest.approx(fb_in.upper, abs=1e-8)

    def test_non_separable_image_returns_general_system(self):
        # shear of 5Z x 3Z mod 15: the slope 5 lands outside 3Z, so the
        # image subgroup is not a product set
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 5, 3, g)
        op = metaplectic_from_generators(SHEAR1, L)
        out = transport_system(op, sys)
        assert isinstance(out, GeneralGaborSystem)
        assert len(out.points) == 15

    def test_shear_fixing_the_lattice_stays_separable(self):
        L = 15
        g = periodized_gaussian(L, np.pi)
        sys = FiniteGaborSystem(L, 5, 5, g)
        op = metaplectic_from_generators(SHEAR1, L)
        out = transport_system(op, sys)
        assert isinstance(out, FiniteGaborSystem)
        assert (out.a, out.b) == (5, 5)

    def test_length_mismatch_rejected(self):
        g = periodized_gaussian(15, np.pi)
        sys = FiniteGaborSystem(15, 3, 5, g)
        op = metaplectic_from_generators(J, 5)
        with pytest.raises(UnsupportedTransport):
            transport_system(op, sys)


# -- oracles: the factor word and the dense generator products -------------------

# Each case: (B, L, the word of the earlier iterative shear reduction, the word of the
# closed normal form B = L_{-t} J L_{-x} J L_{c'} J L_{-y} J).  "F" is the DFT, an
# integer c the chirp c.  The case ids keep the reduction word, so re-pinning the
# normal form does not rename the cases.
FACTOR_WORDS = [
    (COMPOSITE, 5, "F 2 F F F F F F F F F F F F 1 F F F 1 F 1 F F F", "F 3 F 1 F 1 F"),
    (COMPOSITE, 7, "F 2 F F F F F F F F F F F F 1 F F F 1 F 1 F F F", "F 3 F 1 F 1 F"),
    (COMPOSITE, 9, "F 2 F F F F F F F F F F F F 1 F F F 1 F 1 F F F", "F 3 F 1 F 1 F"),
    (COMPOSITE, 15, "F 2 F F F F F F F F F F F F 1 F F F 1 F 1 F F F", "F 3 F 1 F 1 F"),
    ([[2, 1], [3, 2]], 121, "F 80 F F F F F 115 F F F F F F F 81 F F F 3 F 81 F F F", "F 40 F 3 F 40 F"),
    ([[2, 1], [3, 2]], 225, "223 F 64 F F F F F 197 F F F F F F F 193 F F F 7 F 193 F F F",
     "223 F 32 F 7 F 96 F"),
    ([[2, 3], [7, 11]], 15, "F 4 F F F F F 13 F F F F F F F 13 F F F 7 F 13 F F F", "F 2 F 7 F 5 F"),
]
FACTOR_CASES = [
    pytest.param(B, L, old, new, id=f"B{i}-{L}-{old}")
    for i, (B, L, old, new) in enumerate(FACTOR_WORDS)
]


def parse_word(word):
    return tuple(("dft",) if w == "F" else ("chirp", int(w)) for w in word.split())


@pytest.mark.parametrize("B, L, reduction_word, word", FACTOR_CASES)
def test_factors_are_pinned(B, L, reduction_word, word):
    expected = parse_word(word)
    op = metaplectic_from_generators(B, L)
    assert repr(op.factors) == repr(expected)
    assert op.factorization_trace() == [
        {"type": "dft"} if f == ("dft",) else {"type": "chirp", "c": f[1]} for f in expected
    ]


@pytest.mark.parametrize("B, L, reduction_word, word", FACTOR_CASES)
def test_unitary_is_the_reduction_word_up_to_one_phase(B, L, reduction_word, word):
    U_old = np.eye(L, dtype=complex)
    for f in parse_word(reduction_word):
        U_old = U_old @ dense_generator(L, f)
    U = metaplectic_from_generators(B, L).unitary
    c = np.vdot(U_old, U)  # <U_old, U>: tau = c / |c| minimizes ||U - tau U_old||
    tau = c / abs(c)
    assert abs(abs(tau) - 1) < 1e-12
    assert np.abs(U - tau * U_old).max() < 1e-12


def dense_generator(L, f):
    """The module docstring's generators: W[m, n] = L^{-1/2} w^{mn}, chirp diag(w^{c n^2 (L+1)/2})."""
    n = np.arange(L)
    if f == ("dft",):
        return np.exp(2j * np.pi * np.outer(n, n) / L) / np.sqrt(L)
    return np.diag(np.exp(2j * np.pi * (f[1] * n * n * ((L + 1) // 2) % L) / L))


def dense_residual(op, B, z):
    """||U rho(z) - tau rho(Bz) U||_F / ||U||_F from dense rho matrices."""
    L, U = op.L, op.unitary
    t, m = z[0] % L, z[1] % L
    s, r = (B[0][0] * z[0] + B[0][1] * z[1]) % L, (B[1][0] * z[0] + B[1][1] * z[1]) % L
    X = U @ rho_operator(L, t, m)
    Y = rho_operator(L, s, r) @ U
    c = np.vdot(Y, X)
    return np.linalg.norm(X - c / abs(c) * Y) / np.linalg.norm(U)


@st.composite
def sl2_mod_l(draw):
    """(B, L): an integer lift of a random B in SL(2, Z_L) at odd L <= 45, or of J^k at even L."""
    big = st.integers(-(2**70), 2**70)
    if draw(st.booleans()):
        L = draw(st.integers(1, 22)) * 2
        B = np.linalg.matrix_power(np.array(J), draw(st.integers(0, 3))).tolist()
    else:
        L = draw(st.integers(0, 22)) * 2 + 1
        a, b, c = (draw(big) for _ in range(3))
        d = [d for d in range(L) if (a * d - b * c) % L == 1 % L]
        assume(d)
        B = [[a, b], [c, d[0]]]
    B[1][1] += L * draw(big)
    return B, L


def generator_matrix(f):
    return ((0, -1), (1, 0)) if f == ("dft",) else ((1, 0), (f[1], 1))


@settings(max_examples=200, deadline=None)
@given(sl2_mod_l())
def test_word_is_short_and_multiplies_to_b(BL):
    B, L = BL
    factors = metaplectic_from_generators(B, L).factors
    if any(f != ("dft",) for f in factors):  # not a J power
        assert len(factors) <= 8
        assert factors.count(("dft",)) <= 4
    M = ((1, 0), (0, 1))
    for f in factors:  # exact Python ints
        G = generator_matrix(f)
        M = tuple(tuple(sum(M[i][k] * G[k][j] for k in range(2)) for j in range(2)) for i in range(2))
    assert [[x % L for x in row] for row in M] == [[x % L for x in row] for row in B]


@settings(max_examples=60, deadline=None)
@given(sl2_mod_l(), st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)))
def test_unitary_and_residual_match_dense_generators(BL, z):
    B, L = BL
    op = metaplectic_from_generators(B, L)
    U = np.eye(L, dtype=complex)
    for f in op.factors:
        U = U @ dense_generator(L, f)
    assert np.abs(op.unitary - U).max() < 1e-12
    assert abs(covariance_residual(op, z) - dense_residual(op, B, z)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(sl2_mod_l(), st.integers(0, 2**32 - 1))
def test_apply_matches_the_dense_unitary(BL, seed):
    B, L = BL
    op = metaplectic_from_generators(B, L)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(L, 3)) + 1j * rng.normal(size=(L, 3))
    U = op.unitary
    assert np.abs(op.apply(x) - U @ x).max() < 1e-12
    assert np.abs(op.apply(x[:, 1]) - U @ x[:, 1]).max() < 1e-12


def rowwise_unitary(factors, L):
    """The word applied to the identity row by row, written out here: `unitary` equals it
    bit for bit."""
    n2, half = np.arange(L) ** 2 % L, (L + 1) // 2
    U = np.eye(L, dtype=complex)
    for f in factors:
        if f == ("dft",):
            U = np.fft.ifft(U, axis=1, norm="ortho")
        else:
            U *= np.exp(2j * np.pi * (n2 * (f[1] * half % L) % L) / L)
    return U


class TestVectorPath:
    @pytest.mark.parametrize(
        "B, L", [(J, 480), (J, 44), ([[-1, 0], [0, -1]], 16), *[w[:2] for w in FACTOR_WORDS]]
    )
    def test_unitary_is_the_rowwise_build_bit_for_bit(self, B, L):
        op = metaplectic_from_generators(B, L)
        assert "unitary" not in repr(op)
        assert np.array_equal(op.unitary, rowwise_unitary(op.factors, L))
        assert op.unitary is op.unitary  # built once, then kept

    def test_a_given_unitary_acts_everywhere(self):
        L, g = 15, periodized_gaussian(15, np.pi)
        op = metaplectic_from_generators(COMPOSITE, L)
        U2 = op.unitary[np.r_[1, 0, 2:L]]  # rows 0 and 1 swapped: unitary, not covariant
        bad = replace(op, unitary=U2)
        assert bad.unitary is U2
        moved = transport_system(bad, FiniteGaborSystem(L, 3, 5, g))
        np.testing.assert_array_equal(moved.window, U2 @ g)
        assert covariance_residual(bad, (1, 0)) > 1e-3 > 1e-12 > covariance_residual(op, (1, 0))

    def test_transport_at_large_L_builds_no_dense_matrix(self):
        # one complex 4096 x 4096 array takes 256 MiB
        L = 4096
        sys = FiniteGaborSystem(L, 64, 64, periodized_gaussian(L, np.pi))
        tracemalloc.start()
        try:
            moved = transport_system(metaplectic_from_generators(J, L), sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        np.testing.assert_array_equal(moved.window, np.fft.ifft(sys.window, norm="ortho"))

    @pytest.mark.parametrize("x", [np.ones(14), np.ones((15, 2, 2)), np.ones(())])
    def test_apply_rejects_other_shapes(self, x):
        with pytest.raises(InvalidParameter):
            metaplectic_from_generators(COMPOSITE, 15).apply(x)


class TestReplace:
    def test_a_copy_with_another_word_builds_that_words_matrix(self):
        # the copy inherited the dense matrix of the old word as a given `unitary`
        L = 15
        op, other = metaplectic_from_generators(J, L), metaplectic_from_generators(COMPOSITE, L)
        op.unitary  # built and kept on op
        copy = replace(op, matrix=other.matrix, factors=other.factors)
        assert np.array_equal(copy.unitary, other.unitary)
        assert np.array_equal(copy.unitary, rowwise_unitary(other.factors, L))

    def test_a_copy_with_another_length_builds_its_own_matrix(self):
        op = metaplectic_from_generators(J, 5)
        op.unitary
        copy = replace(op, L=15)
        assert copy.unitary.shape == (15, 15)
        assert np.array_equal(copy.unitary, rowwise_unitary(op.factors, 15))

    def test_a_given_matrix_is_kept_only_when_passed(self):
        op = metaplectic_from_generators(COMPOSITE, 15)
        U2 = op.unitary[::-1]
        given = symplectic.MetaplecticOperator(op.matrix, 15, op.factors, unitary=U2)
        assert given.unitary is U2 and replace(given, unitary=op.unitary).unitary is op.unitary
        assert np.array_equal(replace(given, factors=op.factors).unitary, op.unitary)


@st.composite
def odd_operators(draw):
    """(op, B): at odd L <= 45, a metaplectic operator given a random unitary in place of
    U_B, so the covariance residual is of order one and every term of it counts."""
    B, L = draw(sl2_mod_l())
    assume(L % 2 == 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = np.linalg.qr(rng.normal(size=(L, L)) + 1j * rng.normal(size=(L, L)))[0]
    return replace(metaplectic_from_generators(B, L), unitary=Q), B


@settings(max_examples=80, deadline=None)
@given(odd_operators(), st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)))
def test_covariance_residual_is_the_dense_rho_form(opB, z):
    op, B = opB
    assert abs(covariance_residual(op, z) - dense_residual(op, B, z)) < 1e-12


def test_covariance_residual_holds_two_copies_of_u():
    # X = U rho(z) and Y = rho(Bz) U are scaled and subtracted in place: 4.0 U.nbytes
    # at most before, 2.2 U.nbytes with the phase vectors now
    op = metaplectic_from_generators(COMPOSITE, 225)
    U = op.unitary
    covariance_residual(op, (3, 7))
    tracemalloc.start()
    try:
        covariance_residual(op, (3, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * U.nbytes, peak / U.nbytes
