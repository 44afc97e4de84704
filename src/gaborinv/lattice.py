"""Exact rational arithmetic for 2D lattices.

All values are `fractions.Fraction`; every identity in this module holds with
zero tolerance.  The module covers lattice density, reduction of a rational
lattice to a separable one by a unit-determinant matrix, the constructive
reduction of an extra invariant time-frequency shift to the form (d*alpha/m, 0),
adjoint lattices, coset decompositions, and order-finding in the quotient
group R^2 / Lambda.

All operations are pure functions on immutable values; there is no shared
mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import InvalidIndex, InvalidLattice, InvalidOrder, NotAnExtraShift

RationalLike = Union[Fraction, int, str]

__all__ = [
    "RationalMatrix2x2",
    "Lattice2D",
    "SeparableLattice",
    "ReductionResult",
    "as_fraction",
    "rational_str",
    "density",
    "separate",
    "reduce_invariant_shift",
    "adjoint_lattice",
    "order_in_lattice",
    "coset_decomposition",
    "lattice_to_json",
    "lattice_from_json",
]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce int / "p/q" string / Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_str(x: Fraction) -> str:
    """Canonical string: bare integer, or "p/q" with q > 1 and gcd(|p|, q) = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class RationalMatrix2x2:
    """Immutable 2x2 matrix with exact rational entries.

    Supports the handful of operations the lattice algebra needs: product,
    inverse, determinant, vector application, and integrality tests.
    """

    __slots__ = ("_e",)

    def __init__(self, entries: Sequence[Sequence[RationalLike]]):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 array of rationals")
        self._e = rows

    @staticmethod
    def identity() -> "RationalMatrix2x2":
        return RationalMatrix2x2([[1, 0], [0, 1]])

    @staticmethod
    def diagonal(a: RationalLike, b: RationalLike) -> "RationalMatrix2x2":
        return RationalMatrix2x2([[a, 0], [0, b]])

    @property
    def entries(self) -> tuple:
        return self._e

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._e[i][j]

    def det(self) -> Fraction:
        e = self._e
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]

    @property
    def is_symplectic(self) -> bool:
        """True iff det == 1 exactly."""
        return self.det() == 1

    def is_integer(self) -> bool:
        return all(v.denominator == 1 for row in self._e for v in row)

    def inv(self) -> "RationalMatrix2x2":
        d = self.det()
        if d == 0:
            raise InvalidLattice("singular matrix has no inverse")
        e = self._e
        return RationalMatrix2x2(
            [[e[1][1] / d, -e[0][1] / d], [-e[1][0] / d, e[0][0] / d]]
        )

    def __matmul__(self, other: "RationalMatrix2x2") -> "RationalMatrix2x2":
        a, b = self._e, other._e
        return RationalMatrix2x2(
            [
                [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
            ]
        )

    def apply(self, v: Sequence[RationalLike]) -> tuple[Fraction, Fraction]:
        x, y = (as_fraction(c) for c in v)
        e = self._e
        return (e[0][0] * x + e[0][1] * y, e[1][0] * x + e[1][1] * y)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix2x2) and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self) -> str:
        e = self._e
        return f"RationalMatrix2x2([[{e[0][0]}, {e[0][1]}], [{e[1][0]}, {e[1][1]}]])"


@dataclass(frozen=True)
class Lattice2D:
    """The lattice basis @ Z^2 for an invertible rational basis."""

    basis: RationalMatrix2x2
    inverse: RationalMatrix2x2 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.basis.det() == 0:
            raise InvalidLattice("lattice basis must be invertible")
        object.__setattr__(self, "inverse", self.basis.inv())

    def contains(self, v: Sequence[RationalLike]) -> bool:
        """Exact membership test: basis^{-1} v integral."""
        x, y = self.inverse.apply(v)
        return x.denominator == 1 and y.denominator == 1

    def same_lattice(self, other: "Lattice2D") -> bool:
        """True iff the two bases generate the same point set.

        Exact criterion: basis^{-1} @ other.basis is an integer matrix with
        determinant +-1.
        """
        u = self.inverse @ other.basis
        return u.is_integer() and abs(u.det()) == 1


@dataclass(frozen=True)
class SeparableLattice:
    """The product lattice alpha*Z x beta*Z with alpha, beta > 0."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        if self.alpha <= 0 or self.beta <= 0:
            raise InvalidLattice("separable lattice needs alpha, beta > 0")

    def as_lattice(self) -> Lattice2D:
        return Lattice2D(RationalMatrix2x2.diagonal(self.alpha, self.beta))

    def density(self) -> Fraction:
        return 1 / (self.alpha * self.beta)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reducing an extra invariant shift over a*Z x b*Z.

    Satisfies exactly: det(B) = 1, B @ (aZ x bZ) = alpha*Z x beta*Z, and
    B @ shift = (d*alpha/m, 0), where `shift` is the input shift
    (r*a/m, s*b/m) -- with the two coordinates swapped first when
    `fourier_swap` is set (the r = 0 branch works on the Fourier side, where
    the lattice is b*Z x a*Z).
    """

    B: RationalMatrix2x2
    alpha: Fraction
    beta: Fraction
    d: int
    m: int
    fourier_swap: bool
    case: str  # "generic" | "time_only" | "fourier_swap"
    a: Fraction
    b: Fraction
    rho: Optional[int] = None
    sigma: Optional[int] = None
    rho_t: Optional[int] = None
    sigma_t: Optional[int] = None
    A: Optional[RationalMatrix2x2] = None

    def input_lattice(self) -> Lattice2D:
        """The lattice the reduction acts on (Fourier-swapped when flagged)."""
        a, b = (self.b, self.a) if self.fourier_swap else (self.a, self.b)
        return Lattice2D(RationalMatrix2x2.diagonal(a, b))

    def reduced_shift(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.d) * self.alpha / self.m, Fraction(0))

    def to_json_dict(self) -> dict:
        out = {
            "B": [[rational_str(v) for v in row] for row in self.B.entries],
            "det_B": rational_str(self.B.det()),
            "alpha": rational_str(self.alpha),
            "beta": rational_str(self.beta),
            "d": self.d,
            "m": self.m,
            "fourier_swap": self.fourier_swap,
            "case": self.case,
            "reduced_shift": [rational_str(v) for v in self.reduced_shift()],
        }
        if self.rho is not None:
            out["bezout"] = {
                "rho": self.rho,
                "sigma": self.sigma,
                "rho_tilde": self.rho_t,
                "sigma_tilde": self.sigma_t,
            }
        return out


def density(lat: Lattice2D) -> Fraction:
    """Exact lattice density |det basis|^{-1}."""
    d = lat.basis.det()
    if d == 0:
        raise InvalidLattice("lattice basis must be invertible")
    return 1 / abs(d)


def _column_reduce_to_triangular(m11: int, m12: int, m21: int, m22: int):
    """Unimodular integer column operations making the bottom-left entry zero.

    Returns the reduced matrix entries (e, f, 0, h) with h > 0 and e != 0.
    Column operations leave the generated lattice unchanged.
    """
    if m21 == 0:
        e, f, h = m11, m12, m22
    elif m22 == 0:
        # column swap with a sign keeps the operation unimodular
        e, f, h = -m12, m11, m21
    else:
        # x*m21 + y*m22 = g > 0 via extended Euclid
        x, y, g = _xgcd(m21, m22)
        if g < 0:
            x, y, g = -x, -y, -g
        e = (m11 * m22 - m12 * m21) // g
        f = m11 * x + m12 * y
        h = g
    if h < 0:
        f, h = -f, -h
    if e < 0:
        e = -e
    return e, f, h


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g, |g| = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a


def separate(lat: Lattice2D) -> tuple[RationalMatrix2x2, SeparableLattice]:
    """Reduce a rational lattice to a separable one by a det-1 matrix.

    Clears denominators, column-reduces the integer matrix to an upper
    triangular (Hermite-like) form -- column operations do not change the
    lattice -- and then applies the unit-determinant row shear
    [[1, -f/h], [0, 1]] that kills the remaining off-diagonal entry.

    Returns (C, sep) with det C = 1 and C @ lat = sep.alpha*Z x sep.beta*Z
    exactly.
    """
    e = lat.basis.entries
    if lat.basis.det() == 0:
        raise InvalidLattice("lattice basis must be invertible")
    q = lcm(*(v.denominator for row in e for v in row))
    m = [[int(v * q) for v in row] for row in e]
    e11, f, h = _column_reduce_to_triangular(m[0][0], m[0][1], m[1][0], m[1][1])
    shear = RationalMatrix2x2([[1, Fraction(-f, h)], [0, 1]])
    sep = SeparableLattice(Fraction(e11, q), Fraction(h, q))
    return shear, sep


def reduce_invariant_shift(
    a: RationalLike, b: RationalLike, r: int, s: int, m: int
) -> ReductionResult:
    """Reduce the invariant shift (r*a/m, s*b/m) over a*Z x b*Z.

    Implements the three-case construction:

    * s = 0: the shift already points along the time axis; the cyclic group
      it generates modulo a*Z contains (a/m', 0) with m' = m/gcd(r, m) by a
      Bezout step, so the result records B = I, d = r/gcd(r, m), m = m'.
    * r = 0: same, after a Fourier swap of the two axes (flag set; the
      reported lattice is b*Z x a*Z).
    * r, s != 0: with d = gcd(r, s), coprime rho = r/d, sigma = s/d and a
      Bezout pair rho*sigma_t - sigma*rho_t = 1 (rho_t chosen positive), the
      matrices

          A = [[rho*a, rho_t*a], [sigma*b, sigma_t*b]],
          B = [[sigma_t*b/(rho_t*a), -1], [-sigma*rho_t, (a/b)*rho*rho_t]]

      satisfy det B = 1, B @ A = diag(b/rho_t, rho_t*a) and
      B @ shift = (d*alpha/m, 0) with alpha = b/rho_t, beta = rho_t*a.

    All identities hold exactly in rational arithmetic.
    """
    if m < 2:
        raise InvalidOrder(f"m must be >= 2, got {m}")
    if not (0 <= r < m and 0 <= s < m):
        raise ValueError(f"need 0 <= r, s < m, got r={r}, s={s}, m={m}")
    if r == 0 and s == 0:
        raise NotAnExtraShift("(r, s) = (0, 0) lies in the lattice itself")
    a = as_fraction(a)
    b = as_fraction(b)
    if a <= 0 or b <= 0:
        raise ValueError("lattice steps a, b must be positive")

    if s == 0:
        g = gcd(r, m)
        return ReductionResult(
            B=RationalMatrix2x2.identity(),
            alpha=a,
            beta=b,
            d=r // g,
            m=m // g,
            fourier_swap=False,
            case="time_only",
            a=a,
            b=b,
        )
    if r == 0:
        g = gcd(s, m)
        return ReductionResult(
            B=RationalMatrix2x2.identity(),
            alpha=b,
            beta=a,
            d=s // g,
            m=m // g,
            fourier_swap=True,
            case="fourier_swap",
            a=a,
            b=b,
        )

    d = gcd(r, s)
    rho, sigma = r // d, s // d
    x, y, _ = _xgcd(rho, sigma)  # x*rho + y*sigma = 1 (rho, sigma coprime)
    sigma_t, rho_t = x, -y  # rho*sigma_t - sigma*rho_t = 1
    if rho_t < 1:
        # shift along the solution line until rho_t >= 1
        t = (1 - rho_t + rho - 1) // rho
        rho_t += t * rho
        sigma_t += t * sigma
    A = RationalMatrix2x2([[rho * a, rho_t * a], [sigma * b, sigma_t * b]])
    B = RationalMatrix2x2(
        [
            [Fraction(sigma_t) * b / (Fraction(rho_t) * a), -1],
            [-sigma * rho_t, (a / b) * rho * rho_t],
        ]
    )
    return ReductionResult(
        B=B,
        alpha=b / rho_t,
        beta=Fraction(rho_t) * a,
        d=d,
        m=m,
        fourier_swap=False,
        case="generic",
        a=a,
        b=b,
        rho=rho,
        sigma=sigma,
        rho_t=rho_t,
        sigma_t=sigma_t,
        A=A,
    )


def adjoint_lattice(sep: SeparableLattice) -> SeparableLattice:
    """Adjoint of alpha*Z x beta*Z, namely (1/beta)*Z x (1/alpha)*Z."""
    return SeparableLattice(1 / sep.beta, 1 / sep.alpha)


def order_in_lattice(
    z: Sequence[RationalLike], lat: Lattice2D, n_max: int
) -> Optional[int]:
    """Smallest n in [1, n_max] with n*z in lat, or None.

    With basis^{-1} z = (p_1/q_1, p_2/q_2) in lowest terms, k*z lies in the
    lattice iff q_1 | k and q_2 | k, so the order is exactly lcm(q_1, q_2).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    w1, w2 = lat.inverse.apply(z)
    n = lcm(w1.denominator, w2.denominator)
    return n if n <= n_max else None


def coset_decomposition(
    sep: SeparableLattice, q: int
) -> list[tuple[Fraction, Fraction]]:
    """Representatives (k*alpha/q, 0), k = 0..q-1, of (alpha/q)Z x beta*Z over sep."""
    if q < 1:
        raise InvalidIndex(f"coset count q must be >= 1, got {q}")
    return [(Fraction(k) * sep.alpha / q, Fraction(0)) for k in range(q)]


def lattice_to_json(lat: Lattice2D) -> str:
    """Serialize as {"basis": [["p/q", ...], ...]} with canonical rationals."""
    payload = {
        "basis": [[rational_str(v) for v in row] for row in lat.basis.entries]
    }
    return json.dumps(payload, sort_keys=True)


def lattice_from_json(text: str) -> Lattice2D:
    payload = json.loads(text)
    return Lattice2D(RationalMatrix2x2(payload["basis"]))
