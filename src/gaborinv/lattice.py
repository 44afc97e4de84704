"""Exact rational arithmetic for 2D lattices.

All values are `fractions.Fraction`; every identity in this module holds with
zero tolerance.  The module covers lattice density, reduction of a rational
lattice to a separable one by a unit-determinant matrix, the constructive
reduction of an extra invariant time-frequency shift to the form (d*alpha/m, 0),
adjoint lattices, coset decompositions, and order-finding in the quotient
group R^2 / Lambda.

Each computed rational is built once, by one `Fraction(n, d)` from the integer
numerators and denominators of its operands: one gcd, and no intermediate
Fractions.  No value goes through a float.

All operations are pure functions on immutable values; there is no shared
mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import InvalidIndex, InvalidLattice, InvalidOrder, NotAnExtraShift, exact_int

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


_ZERO, _ONE = Fraction(0), Fraction(1)


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an integer (numpy integers too) / "p/q" string / Fraction to an
    exact Fraction; a float is rejected."""
    if isinstance(x, Fraction):  # first: the hot path
        return x
    if isinstance(x, str):
        return Fraction(x.strip())
    try:
        return Fraction(operator.index(x))
    except TypeError:
        raise TypeError(f"cannot interpret {x!r} as an exact rational") from None


def rational_str(x: Fraction) -> str:
    """Canonical string: bare integer, or "p/q" with q > 1 and gcd(|p|, q) = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _dot(w: Fraction, x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """w*x + y*z, built from the numerators and denominators in one Fraction."""
    (wn, wd), (xn, xd) = w.as_integer_ratio(), x.as_integer_ratio()
    (yn, yd), (zn, zd) = y.as_integer_ratio(), z.as_integer_ratio()
    d1, d2 = wd * xd, yd * zd
    return Fraction(wn * xn * d2 + yn * zn * d1, d1 * d2)


class RationalMatrix2x2:
    """Immutable 2x2 matrix with exact rational entries.

    Supports the handful of operations the lattice algebra needs: product,
    inverse, determinant, vector application, and integrality tests.  Each
    computes on integer numerators and denominators and builds every result
    entry with one Fraction.
    """

    __slots__ = ("_e",)

    def __init__(self, entries: Sequence[Sequence[RationalLike]]):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("expected a 2x2 array of rationals")
        self._e = rows

    @classmethod
    def _of(cls, e11: Fraction, e12: Fraction, e21: Fraction, e22: Fraction):
        """The matrix of four entries that are already Fractions: no coercion."""
        m = object.__new__(cls)
        m._e = ((e11, e12), (e21, e22))
        return m

    @staticmethod
    def identity() -> "RationalMatrix2x2":
        return _IDENTITY

    @staticmethod
    def diagonal(a: RationalLike, b: RationalLike) -> "RationalMatrix2x2":
        return RationalMatrix2x2._of(as_fraction(a), _ZERO, _ZERO, as_fraction(b))

    @property
    def entries(self) -> tuple:
        return self._e

    def _ratios(self) -> list[tuple[int, int]]:
        """The entries' (numerator, denominator) pairs, row by row."""
        return [v.as_integer_ratio() for row in self._e for v in row]

    def _det_parts(self) -> tuple[int, int]:
        """det = n / d as the integers (n, d), d > 0, not reduced."""
        (an, ad), (bn, bd), (cn, cd), (dn, dd) = self._ratios()
        d1, d2 = ad * dd, bd * cd
        return an * dn * d2 - bn * cn * d1, d1 * d2

    def det(self) -> Fraction:
        return Fraction(*self._det_parts())

    def string_rows(self) -> list[list[str]]:
        """The entries as rows of `rational_str`, the JSON form of a matrix."""
        return [[rational_str(v) for v in row] for row in self._e]

    def is_integer(self) -> bool:
        return all(v.denominator == 1 for row in self._e for v in row)

    def inv(self) -> "RationalMatrix2x2":
        n, d = self._det_parts()
        if n == 0:
            raise InvalidLattice("singular matrix has no inverse")
        # each entry p/q of the adjugate, divided by n/d, is p*d / (q*n)
        (an, ad), (bn, bd), (cn, cd), (en, ed) = self._ratios()
        return RationalMatrix2x2._of(
            Fraction(en * d, ed * n),
            Fraction(-bn * d, bd * n),
            Fraction(-cn * d, cd * n),
            Fraction(an * d, ad * n),
        )

    def __matmul__(self, other: "RationalMatrix2x2") -> "RationalMatrix2x2":
        (a, b), (c, d) = self._e
        (p, q), (r, s) = other._e
        return RationalMatrix2x2._of(
            _dot(a, p, b, r), _dot(a, q, b, s), _dot(c, p, d, r), _dot(c, q, d, s)
        )

    def apply(self, v: Sequence[RationalLike]) -> tuple[Fraction, Fraction]:
        x, y = v
        x, y = as_fraction(x), as_fraction(y)
        (a, b), (c, d) = self._e
        return (_dot(a, x, b, y), _dot(c, x, d, y))

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix2x2) and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self) -> str:
        e = self._e
        return f"RationalMatrix2x2([[{e[0][0]}, {e[0][1]}], [{e[1][0]}, {e[1][1]}]])"


_IDENTITY = RationalMatrix2x2._of(_ONE, _ZERO, _ZERO, _ONE)  # immutable, so shared


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
        alpha, beta = as_fraction(self.alpha), as_fraction(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if alpha.numerator <= 0 or beta.numerator <= 0:
            raise InvalidLattice("separable lattice needs alpha, beta > 0")

    def as_lattice(self) -> Lattice2D:
        return Lattice2D(RationalMatrix2x2.diagonal(self.alpha, self.beta))

    def density(self) -> Fraction:
        (an, ad), (bn, bd) = self.alpha.as_integer_ratio(), self.beta.as_integer_ratio()
        return Fraction(ad * bd, an * bn)


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

    def input_lattice(self) -> Lattice2D:
        """The lattice the reduction acts on (Fourier-swapped when flagged)."""
        a, b = (self.b, self.a) if self.fourier_swap else (self.a, self.b)
        return Lattice2D(RationalMatrix2x2.diagonal(a, b))

    def reduced_shift(self) -> tuple[Fraction, Fraction]:
        n, d = self.alpha.as_integer_ratio()
        return (Fraction(self.d * n, d * self.m), _ZERO)

    def to_json_dict(self) -> dict:
        out = {
            "B": self.B.string_rows(),
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
    n, d = lat.basis._det_parts()
    return Fraction(d, abs(n))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (x0, y0, a) if a >= 0 else (-x0, -y0, -a)


def separate(lat: Lattice2D) -> tuple[RationalMatrix2x2, SeparableLattice]:
    """Reduce a rational lattice to a separable one by a det-1 matrix.

    Clears denominators, makes the integer matrix upper triangular,
    [[+-e, f], [0, h]], by one extended-Euclid column step -- column
    operations do not change the lattice -- and then applies the
    unit-determinant row shear [[1, -f/h], [0, 1]] that kills the remaining
    off-diagonal entry.

    Returns (C, sep) with det C = 1 and C @ lat = sep.alpha*Z x sep.beta*Z
    exactly.
    """
    ratios = lat.basis._ratios()
    q = lcm(*(d for _, d in ratios))
    m11, m12, m21, m22 = (n * (q // d) for n, d in ratios)
    x, y, h = _xgcd(m21, m22)  # the unimodular columns (-m22/h, m21/h), (x, y)
    f = m11 * x + m12 * y
    shear = RationalMatrix2x2._of(_ONE, Fraction(-f, h), _ZERO, _ONE)
    sep = SeparableLattice(Fraction(abs(m11 * m22 - m12 * m21) // h, q), Fraction(h, q))
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
      Bezout pair rho*sigma_t - sigma*rho_t = 1 with 1 <= rho_t <= rho, the
      matrices

          A = [[rho*a, rho_t*a], [sigma*b, sigma_t*b]],
          B = [[sigma_t*b/(rho_t*a), -1], [-sigma*rho_t, (a/b)*rho*rho_t]]

      satisfy det B = 1, B @ A = diag(b/rho_t, rho_t*a) and
      B @ shift = (d*alpha/m, 0) with alpha = b/rho_t, beta = rho_t*a.

    All identities hold exactly in rational arithmetic.
    """
    m = exact_int(m, InvalidOrder, f"m must be >= 2, got {m}", 2)
    message = f"need 0 <= r, s < m, got r={r}, s={s}, m={m}"
    r, s = exact_int(r, ValueError, message, 0), exact_int(s, ValueError, message, 0)
    if r >= m or s >= m:
        raise ValueError(message)
    if r == 0 and s == 0:
        raise NotAnExtraShift("(r, s) = (0, 0) lies in the lattice itself")
    a, b = as_fraction(a), as_fraction(b)
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    if an <= 0 or bn <= 0:
        raise ValueError("lattice steps a, b must be positive")

    if s == 0 or r == 0:
        swap, k = r == 0, r or s  # the r = 0 case is s = 0 with the axes swapped
        g = gcd(k, m)
        return ReductionResult(
            B=RationalMatrix2x2.identity(),
            alpha=b if swap else a,
            beta=a if swap else b,
            d=k // g,
            m=m // g,
            fourier_swap=swap,
            case="fourier_swap" if swap else "time_only",
            a=a,
            b=b,
        )

    d = gcd(r, s)
    rho, sigma = r // d, s // d
    rho_t = -pow(sigma, -1, rho) % rho or rho  # sigma*rho_t = -1 mod rho
    sigma_t = (1 + sigma * rho_t) // rho
    B = RationalMatrix2x2._of(
        Fraction(sigma_t * bn * ad, bd * rho_t * an),
        Fraction(-1),
        Fraction(-sigma * rho_t),
        Fraction(an * bd * rho * rho_t, ad * bn),
    )
    return ReductionResult(
        B=B,
        alpha=Fraction(bn, bd * rho_t),
        beta=Fraction(rho_t * an, ad),
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
    )


def adjoint_lattice(sep: SeparableLattice) -> SeparableLattice:
    """Adjoint of alpha*Z x beta*Z, namely (1/beta)*Z x (1/alpha)*Z."""
    (an, ad), (bn, bd) = sep.alpha.as_integer_ratio(), sep.beta.as_integer_ratio()
    return SeparableLattice(Fraction(bd, bn), Fraction(ad, an))


def order_in_lattice(
    z: Sequence[RationalLike], lat: Lattice2D, n_max: int
) -> Optional[int]:
    """Smallest n in [1, n_max] with n*z in lat, or None.

    With basis^{-1} z = (p_1/q_1, p_2/q_2) in lowest terms, k*z lies in the
    lattice iff q_1 | k and q_2 | k, so the order is exactly lcm(q_1, q_2).
    """
    n_max = exact_int(n_max, ValueError, "n_max must be >= 1", 1)
    w1, w2 = lat.inverse.apply(z)
    n = lcm(w1.denominator, w2.denominator)
    return n if n <= n_max else None


def coset_decomposition(
    sep: SeparableLattice, q: int
) -> list[tuple[Fraction, Fraction]]:
    """Representatives (k*alpha/q, 0), k = 0..q-1, of (alpha/q)Z x beta*Z over sep."""
    q = exact_int(q, InvalidIndex, f"coset count q must be >= 1, got {q}", 1)
    n, d = sep.alpha.as_integer_ratio()
    return [(Fraction(k * n, d * q), _ZERO) for k in range(q)]


def lattice_to_json(lat: Lattice2D) -> str:
    """Serialize as {"basis": [["p/q", ...], ...]} with canonical rationals."""
    return json.dumps({"basis": lat.basis.string_rows()}, sort_keys=True)


def lattice_from_json(text: str) -> Lattice2D:
    payload = json.loads(text)
    return Lattice2D(RationalMatrix2x2(payload["basis"]))
