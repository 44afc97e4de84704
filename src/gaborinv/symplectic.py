"""Finite metaplectic operators for unit-determinant integer matrices mod L.

The symmetrized shift rho(t, m) = exp(pi*i*t*m*(L+1)/L) * pi(t, m) admits,
for every B in SL(2, Z_L), a unitary U_B with

    U_B rho(z) = rho(B z) U_B        (up to a single phase per z),

built from two generators:

* J = [[0, -1], [1, 0]]      ->  the unitary DFT with positive exponent,
                                 W[m, n] = L^{-1/2} exp(+2*pi*i*m*n/L);
* [[1, 0], [c, 1]]           ->  the chirp  f[n] -> w^{c n^2 (L+1)/2} f[n],
                                 w = exp(2*pi*i/L), well defined for odd L.

Odd L keeps the chirp phases single valued (no metaplectic double cover);
matrices that factor through J alone (DFT powers) are accepted for every L,
since their covariance carries no half-integer phases.

B is reduced mod L in exact integers and written in one closed normal form
(Feichtinger, Hazewinkel, Kaiblinger, Matusiak & Neuhauser 2008; Kaiblinger &
Neuhauser 2009): B = J^k, a single lower shear, or

    B = L_{-t} J L_{-x} J L_{c'} J L_{-y} J,     L_u = [[1, 0], [u, 1]],

a word of four DFTs and at most four chirps (`_factor_words`).  The operator
acts on vectors through that word (`MetaplecticOperator.apply`): each DFT is
one inverse FFT and each chirp one phase vector, O(L log L) per column, so
`transport_system` forms no L x L array.  The dense U_B is built only when
`unitary` is read, for the covariance identity: the word applied to the
identity, one inverse FFT per row for each DFT, kept on the operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import (
    InvalidParameter, NotSymplectic, UnsupportedLength, UnsupportedTransport, exact_int, exact_ints
)
from .gabor import FiniteGaborSystem, shift_operator, tf_shifts

__all__ = [
    "MetaplecticOperator",
    "GeneralGaborSystem",
    "metaplectic_from_generators",
    "covariance_residual",
    "transport_system",
    "rho_operator",
]

_DFT = ("dft",)
_I = ((1, 0), (0, 1))
_J = ((0, -1), (1, 0))


def _rho_phase(L: int, t: int, m: int) -> complex:
    """The scalar e^{pi i t m (L+1)/L} of rho(t, m), its exponent reduced mod 2L."""
    return np.exp(1j * np.pi * (t * m * (L + 1) % (2 * L)) / L)


def rho_operator(L: int, t: int, m: int) -> np.ndarray:
    """Symmetrized shift rho(t, m) = e^{pi i t m (L+1)/L} pi(t, m).

    For odd L the phase equals w^{t m (L+1)/2} and rho is L-periodic in both
    arguments; for even L it is periodic only up to sign, which the per-point
    phase minimization in `covariance_residual` absorbs.
    """
    return shift_operator(L, t, m) * _rho_phase(L, t, m)  # the first reads L, t and m


def _mul(A, M, L: int) -> tuple:
    """A M mod L for 2x2 integer matrices."""
    return tuple(tuple(sum(a * m for a, m in zip(row, col)) % L for col in zip(*M)) for row in A)


def _chirp(c: int, L: int) -> np.ndarray:
    """The phase vector w^{c n^2 (L+1)/2} of the chirp c; (L + 1)/2 = 2^{-1} mod odd L."""
    n2, half = np.arange(L) ** 2 % L, (L + 1) // 2
    return np.exp(2j * np.pi * (n2 * (c * half % L) % L) / L)


def _word_on_identity(factors: tuple, L: int) -> np.ndarray:
    """The dense U_B: the factor word applied to the identity from the right."""
    U = np.eye(L, dtype=complex)
    for f in factors:  # U <- U F; W is symmetric, so U W is the inverse FFT of each row
        if f == _DFT:
            U = np.fft.ifft(U, axis=1, norm="ortho")  # W[m, n] = L^{-1/2} w^{+mn}
        else:
            U *= _chirp(f[1], L)
    return U


@dataclass(frozen=True, init=False)
class MetaplecticOperator:
    """Unitary realizing a mod-L symplectic matrix, with its generator trace.

    `apply` runs the factor word on vectors; `unitary` is the dense L x L
    matrix, built from the word when first read unless one was given as the
    keyword `unitary`.  It is no field, so `dataclasses.replace` hands a copy the
    old matrix only when asked, `replace(op, unitary=U)`; a copy with a new `L`
    or `factors` builds its own.
    """

    matrix: np.ndarray  # 2x2 integer, det = 1 mod L
    L: int
    factors: tuple  # (("dft",) | ("chirp", c), ...)

    def __init__(self, matrix, L, factors, unitary=None):
        for name, value in (("matrix", matrix), ("L", L), ("factors", factors)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_given", unitary)

    @property
    def unitary(self) -> np.ndarray:
        """The given matrix, or else the word applied to the identity, built on the
        first read and kept on the operator (two concurrent first reads may both
        build; the results are equal)."""
        U = self._given
        if U is None:
            U = self.__dict__.get("_dense")
            if U is None:
                U = self.__dict__["_dense"] = _word_on_identity(self.factors, self.L)
        return U

    def apply(self, x) -> np.ndarray:
        """U_B x for a signal or the columns of an (L, k) stack.

        The factor word acts from the right: each DFT is an inverse FFT along
        axis 0 and each chirp scales by its phase vector, O(L log L) per column.
        An operator given an explicit `unitary` applies that matrix instead.
        """
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[0] != self.L:
            raise InvalidParameter(f"apply needs a length-{self.L} signal or ({self.L}, k) stack")
        if self._given is not None:
            return self._given @ x
        for f in reversed(self.factors):
            if f == _DFT:
                x = np.fft.ifft(x, axis=0, norm="ortho")
            else:
                x = (_chirp(f[1], self.L) * x.T).T  # scales row n of x
        return x

    def factorization_trace(self) -> list[dict]:
        """JSON-ready list of the generators composing the unitary."""
        out = []
        for f in self.factors:
            if f[0] == "dft":
                out.append({"type": "dft"})
            else:
                out.append({"type": "chirp", "c": int(f[1])})
        return out


def _j_power(B: tuple, L: int) -> int | None:
    """k with B = J^k mod L (B already reduced), or None."""
    P = _mul(_I, _I, L)  # I mod L: the zero matrix when L = 1
    for k in range(4):
        if B == P:
            return k
        P = _mul(_J, P, L)
    return None


def _factor_words(B: tuple, L: int) -> list[tuple]:
    """Factor B = [[p, q], [c, d]] in SL(2, Z_L) (reduced mod L) into DFTs and chirps.

    A lower shear L_t = [[1, 0], [t, 1]] makes c' = c + t p a unit mod L
    (det B = 1 guarantees some t).  Then L_t B = U_x L_{c'} U_y with
    U_u = [[1, u], [0, 1]] = J L_{-u} J^{-1}, x = (p - 1)/c', y = (d + t q - 1)/c',
    and as J^{-1} = -J with -I central, B = L_{-t} J L_{-x} J L_{c'} J L_{-y} J.
    Chirps need odd L; DFT powers are factored for every L.
    """
    k = _j_power(B, L)
    if k is not None:
        return [_DFT] * k
    if L % 2 == 0:
        raise UnsupportedLength(f"even L = {L} supports only DFT powers (chirps need odd L)")
    (p, q), (c, d) = B
    if p == 1 and q == 0 and d == 1:
        return [("chirp", c)]
    t = next(t for t in range(L) if gcd(c + t * p, L) == 1)
    c1 = (c + t * p) % L
    x, y = (p - 1) * pow(c1, -1, L), (d + t * q - 1) * pow(c1, -1, L)
    word: list[tuple] = []
    for u in (-t, -x, c1, -y):  # chirp(u) then a DFT; zero chirps are dropped
        word += [("chirp", u % L), _DFT] if u % L else [_DFT]
    M = _I
    for f in word:  # the fault check: the word's generator matrices must multiply to B
        M = _mul(M, _J if f == _DFT else ((1, 0), (f[1], 1)), L)
    if M != B:
        raise NotSymplectic(f"factorization failed, residue {[list(r) for r in M]} != B")
    return word


def metaplectic_from_generators(B, L: int) -> MetaplecticOperator:
    """Build U_B for an integer matrix with det B = 1 mod L.

    L must be odd whenever the factorization needs chirps; pure DFT powers
    (B = J^k mod L) are available for every L.  Only the factor word is
    computed here; `apply` and the dense `unitary` are read from it.
    """
    (x, y), (c, w) = exact_ints(B, (2, 2), InvalidParameter, "B must be a 2x2 integer matrix")
    L = exact_int(L, UnsupportedLength, "L must be positive", 1)
    det = x * w - y * c
    if det % L != 1 % L:
        raise NotSymplectic(f"det B = {det} != 1 (mod {L})")
    B = ((x % L, y % L), (c % L, w % L))
    factors = tuple(_factor_words(B, L))
    return MetaplecticOperator(matrix=np.array(B, dtype=np.int64), L=L, factors=factors)


def covariance_residual(op: MetaplecticOperator, z) -> float:
    """min over |tau| = 1 of ||U rho(z) - tau rho(Bz) U||_F / ||U||_F.

    With pi(t, m) = T_t M_m, U rho(t, m) is U with its columns rolled back by
    t and scaled by the modulation, and rho(s, r) U is the modulated U with
    its rows rolled forward by s; no rho matrix is formed.
    """
    L, U = op.L, op.unitary
    t, m = (v % L for v in exact_ints(z, (2,), InvalidParameter, "z must be an integer pair"))
    (p, q), (u, v) = op.matrix.tolist()
    s, r = (p * t + q * m) % L, (u * t + v * m) % L
    n = np.arange(L)
    wave = np.exp(2j * np.pi * n / L)
    # two L x L arrays, rolled copies of U scaled in place with the operands in the order
    # of U rho(z) and rho(Bz) U; Y's row phases are rolled with its rows
    X = np.roll(U, -t, axis=1)
    X *= _rho_phase(L, t, m) * wave[m * n % L]
    Y = np.roll(U, s, axis=0)
    np.multiply(np.roll(_rho_phase(L, s, r) * wave[r * n % L], s)[:, None], Y, out=Y)
    c = np.vdot(Y, X)  # Frobenius inner product <X, Y>
    tau = c / abs(c) if abs(c) > 0 else 1.0
    X -= np.multiply(tau, Y, out=Y)
    return float(np.linalg.norm(X) / np.linalg.norm(U))


@dataclass(frozen=True)
class GeneralGaborSystem:
    """Gabor family over an arbitrary subgroup of Z_L x Z_L."""

    L: int
    points: tuple  # sorted ((t, m), ...)
    window: np.ndarray

    def system_matrix(self) -> np.ndarray:
        return tf_shifts(self.window, *np.array(self.points).T)


def transport_system(op: MetaplecticOperator, sys: FiniteGaborSystem):
    """Map (g, Lambda) to (U_B g, B Lambda).

    Returns a FiniteGaborSystem when B Lambda is again separable with steps
    dividing L, else a GeneralGaborSystem over the image subgroup.  The span
    of the result equals U_B applied to the span of the input.
    """
    if op.L != sys.L:
        raise UnsupportedTransport(
            f"operator length {op.L} != system length {sys.L}"
        )
    L = sys.L
    k, l = np.divmod(np.arange(sys.n_time * sys.n_freq), sys.n_freq)
    t, m = (op.matrix @ np.stack([k * sys.a, l * sys.b]) % L).tolist()
    pts = set(zip(t, m))
    new_window = op.apply(sys.window)
    at, bf = gcd(L, *t), gcd(L, *m)
    if len(pts) == (L // at) * (L // bf):
        return FiniteGaborSystem(L, at, bf, new_window)
    return GeneralGaborSystem(L, tuple(sorted(pts)), new_window)
