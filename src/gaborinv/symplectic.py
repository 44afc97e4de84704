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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import NotSymplectic, UnsupportedLength, UnsupportedTransport
from .gabor import FiniteGaborSystem, shift_operator, tf_shifts

__all__ = [
    "MetaplecticOperator",
    "GeneralGaborSystem",
    "metaplectic_from_generators",
    "covariance_residual",
    "transport_system",
    "rho_operator",
]


def rho_operator(L: int, t: int, m: int) -> np.ndarray:
    """Symmetrized shift rho(t, m) = e^{pi i t m (L+1)/L} pi(t, m).

    For odd L the phase equals w^{t m (L+1)/2} and rho is L-periodic in both
    arguments; for even L it is periodic only up to sign, which the per-point
    phase minimization in `covariance_residual` absorbs.
    """
    phase = np.exp(1j * np.pi * t * m * (L + 1) / L)
    return phase * shift_operator(L, t, m)


def _mat2(entries) -> np.ndarray:
    B = np.asarray(entries, dtype=np.int64)
    if B.shape != (2, 2):
        raise ValueError("B must be a 2x2 integer matrix")
    return B


@dataclass(frozen=True)
class MetaplecticOperator:
    """Unitary realizing a mod-L symplectic matrix, with its generator trace."""

    matrix: np.ndarray  # 2x2 integer, det = 1 mod L
    unitary: np.ndarray  # L x L
    L: int
    factors: tuple  # (("dft",) | ("chirp", c), ...)

    def factorization_trace(self) -> list[dict]:
        """JSON-ready list of the generators composing the unitary."""
        out = []
        for f in self.factors:
            if f[0] == "dft":
                out.append({"type": "dft"})
            else:
                out.append({"type": "chirp", "c": int(f[1])})
        return out


def _dft_plus(L: int) -> np.ndarray:
    n = np.arange(L)
    return np.exp(2j * np.pi * np.outer(n, n) / L) / np.sqrt(L)


def _chirp(L: int, c: int) -> np.ndarray:
    n = np.arange(L)
    half = (L + 1) // 2  # multiplicative inverse of 2 mod odd L
    return np.diag(np.exp(2j * np.pi * ((c * n * n * half) % L) / L))


_J = np.array([[0, -1], [1, 0]], dtype=np.int64)


def _is_power_of_j(B: np.ndarray, L: int) -> int | None:
    P = np.eye(2, dtype=np.int64)
    for k in range(4):
        if np.array_equal(B % L, P % L):
            return k
        P = _J @ P
    return None


def _inv_mod(x: int, L: int) -> int:
    g = gcd(x % L, L)
    if g != 1:
        raise ValueError(f"{x} is not invertible mod {L}")
    return pow(x % L, -1, L)


# the left multiplications of `_factor_words`: name -> (matrix, name of the inverse)
_REDUCTIONS = {
    "L": (lambda c: [[1, 0], [c, 1]], "L"),
    "U": (lambda u: [[1, u], [0, 1]], "U"),
    "J": (lambda: [[0, -1], [1, 0]], "Jinv"),
    "Jinv": (lambda: [[0, 1], [-1, 0]], "J"),
}


def _factor_words(B: np.ndarray, L: int) -> list[tuple]:
    """Factor B in SL(2, Z_L) into J's and lower shears.

    Reduces B to the identity by left multiplications with J^{±1} and
    elementary shears; if O_k ... O_1 B = I then B = O_1^{-1} ... O_k^{-1},
    so the inverses are emitted in application order.  Upper shears are
    rewritten via U_u = J L_{-u} J^{-1}.
    """
    k = _is_power_of_j(B, L)
    if k is not None:
        return [("J",)] * k
    if B[0, 0] % L == 1 and B[0, 1] % L == 0 and B[1, 1] % L == 1:
        return [("L", int(B[1, 0] % L))]

    word: list[tuple] = []  # inverses of the applied reductions, product order
    M = B % L

    def lmul(op, *args):
        nonlocal M
        matrix, inverse = _REDUCTIONS[op]
        M = (np.array(matrix(*args), dtype=np.int64) @ M) % L
        word.append((inverse, *((-x) % L for x in args)))

    # make the bottom-left entry invertible mod L
    if gcd(int(M[1, 0]), L) != 1:
        a, c = int(M[0, 0]), int(M[1, 0])
        for t in range(L):
            if gcd((c + t * a) % L, L) == 1:
                lmul("L", t)
                break
        else:  # pragma: no cover - det = 1 guarantees a valid t exists
            raise NotSymplectic("cannot find an invertible pivot")
    # clear the top-left entry, rotate, clear the new top-right entry
    cinv = _inv_mod(int(M[1, 0]), L)
    lmul("U", (-int(M[0, 0]) * cinv) % L)
    lmul("Jinv")
    w = int(M[0, 0])
    lmul("U", (-int(M[0, 1]) * w) % L)  # v = d'*w so that v*w^{-1} = d'
    # M is now diag(w, w^{-1}); U_{w^{-1}} L_{-w} U_{w^{-1}} J = diag(w^{-1}, w)
    winv = _inv_mod(w, L)
    lmul("J")
    lmul("U", winv % L)
    lmul("L", (-w) % L)
    lmul("U", winv % L)
    if not np.array_equal(M, np.eye(2, dtype=np.int64)):
        raise NotSymplectic(f"factorization failed, residue {M.tolist()}")

    out: list[tuple] = []
    for op in word:
        if op == ("J",):
            out.append(("J",))
        elif op == ("Jinv",):
            out.extend([("J",)] * 3)
        elif op[0] == "L":
            out.append(("L", op[1] % L))
        else:  # U_u = J L_{-u} J^3
            out.append(("J",))
            out.append(("L", (-op[1]) % L))
            out.extend([("J",)] * 3)
    return out


def metaplectic_from_generators(B, L: int) -> MetaplecticOperator:
    """Build U_B for an integer matrix with det B = 1 mod L.

    L must be odd whenever the factorization needs chirps; pure DFT powers
    (B = J^k mod L) are available for every L.
    """
    B = _mat2(B)
    if L < 1:
        raise UnsupportedLength("L must be positive")
    (x, y), (c, w) = B.tolist()  # Python ints: the determinant is exact
    det = x * w - y * c
    if det % L != 1 % L:
        raise NotSymplectic(f"det B = {det} != 1 (mod {L})")
    jpow = _is_power_of_j(B, L)
    if L % 2 == 0 and jpow is None:
        raise UnsupportedLength(
            f"even L = {L} supports only DFT powers (chirps need odd L)"
        )
    words = _factor_words(B, L)
    factors = tuple(
        ("dft",) if w[0] == "J" else ("chirp", w[1]) for w in words if w[0] != "L" or w[1] % L != 0
    )
    U = np.eye(L, dtype=complex)
    W = _dft_plus(L)
    for f in factors:
        U = U @ (W if f[0] == "dft" else _chirp(L, f[1]))
    return MetaplecticOperator(matrix=B % L, unitary=U, L=L, factors=factors)


def covariance_residual(op: MetaplecticOperator, z) -> float:
    """min over |tau| = 1 of ||U rho(z) - tau rho(Bz) U||_F / ||U||_F."""
    t, m = int(z[0]), int(z[1])
    L = op.L
    Bz = op.matrix @ np.array([t, m], dtype=np.int64)
    X = op.unitary @ rho_operator(L, t % L, m % L)
    Y = rho_operator(L, int(Bz[0]) % L, int(Bz[1]) % L) @ op.unitary
    c = np.vdot(Y, X)  # Frobenius inner product <X, Y>
    tau = c / abs(c) if abs(c) > 0 else 1.0
    return float(np.linalg.norm(X - tau * Y) / np.linalg.norm(op.unitary))


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
    new_window = op.unitary @ sys.window
    at, bf = gcd(L, *t), gcd(L, *m)
    if len(pts) == (L // at) * (L // bf):
        return FiniteGaborSystem(L, at, bf, new_window)
    return GeneralGaborSystem(L, tuple(sorted(pts)), new_window)
