"""Finite Gabor model on C^L.

Conventions (fixed throughout the package):

* translation   (T_t f)[n] = f[n - t]  (cyclic),
* modulation    (M_m f)[n] = exp(2*pi*i*m*n/L) f[n],
* TF shift      pi(t, m) = T_t M_m = exp(-2*pi*i*t*m/L) M_m T_t.

A system is the family {pi(k*a, l*b) g} with a | L and b | L, so there are
N = L/a time positions and M = L/b modulations.  The continuous parameters
map as alpha <-> a samples, beta <-> b bins, and the adjoint lattice
(1/beta, 1/alpha) <-> (L/b samples, L/a bins); the product alpha*beta
corresponds to a*b/L.

S = D D^H couples n only with n + j L/b (Walnut 1992; Zibulski & Zeevi 1997):
on each fibre {r + j L/b : j < b} it is the b x b block (L/b) Z_r Z_r^H with
Z_r[j, k] = g[r + j L/b - k a], so S is factored as L/b blocks, never as an
L x L matrix; the span of the system stays in these blocks (`SubspaceBasis`).
The Walnut and Janssen forms are scattered from these blocks and from the
inner-product table, and the windows pi(t_i, m_i) f are one gather
(`tf_shifts`).  Matrices are never mutated and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DEFAULT_RANK_TOL,
    InvalidLattice,
    InvalidParameter,
    ZeroWindow,
    check_tolerance,
    exact_int,
    exact_ints,
)

__all__ = [
    "FiniteGaborSystem",
    "lattice_steps",
    "WalnutCoefficients",
    "SubspaceBasis",
    "FrameBounds",
    "DualWindowResult",
    "SystemAnalysis",
    "tf_shift",
    "tf_shifts",
    "shift_operator",
    "gabor_matrix",
    "frame_operator_direct",
    "frame_operator_walnut",
    "analyze_system",
    "canonical_dual",
    "frame_bounds",
    "cross_frame_operator",
    "janssen_representation",
    "periodized_gaussian",
    "support_space",
    "is_hermitian",
    "orthonormal_range",
]


def tf_shift(f: np.ndarray, t: int, m: int) -> np.ndarray:
    """Apply pi(t, m) = T_t M_m to a length-L signal (indices mod L)."""
    f = np.asarray(f)
    L = f.shape[0]
    n = np.arange(L)
    return np.roll(np.exp(2j * np.pi * (m % L) * n / L) * f, t % L)


def tf_shifts(f: np.ndarray, t, m) -> np.ndarray:
    """Columns pi(t_i, m_i) f for integer arrays t, m (broadcast), one gather."""
    L = f.shape[0]
    idx = (np.arange(L)[:, None] - t) % L
    return f[idx] * np.exp(2j * np.pi * np.arange(L) / L)[np.asarray(m) * idx % L]


def shift_operator(L: int, t: int, m: int) -> np.ndarray:
    """The L x L matrix of pi(t, m), for integers L >= 1, t and m."""
    message = f"shift_operator needs integers L >= 1, t and m, got L={L}, t={t}, m={m}"
    L = exact_int(L, InvalidParameter, message, 1)
    t, m = exact_ints((t, m), (2,), InvalidParameter, message)
    n = np.arange(L)
    D = np.exp(2j * np.pi * (m % L) * n / L)
    P = np.roll(np.eye(L), t % L, axis=0)
    return P * D[np.newaxis, :]


def is_hermitian(A: np.ndarray, rtol: float = 1e-10) -> bool:
    """Hermitian flag: ||A^H - A||_F <= rtol * ||A||_F."""
    nrm = np.linalg.norm(A)
    if nrm == 0:
        return True
    return np.linalg.norm(A.conj().T - A) <= rtol * nrm


def lattice_steps(L: int, a: int, b: int) -> tuple[int, int, int]:
    """L >= 1 and the steps a, b dividing it, as ints; InvalidLattice otherwise."""
    L = exact_int(L, InvalidLattice, "L must be positive", 1)
    message = f"steps must divide L: L={L}, a={a}, b={b}"
    return (L, *exact_ints((a, b), (2,), InvalidLattice, message, 1, L))


@dataclass(frozen=True)
class FiniteGaborSystem:
    """Finite window plus integer lattice steps (a, b), both dividing L."""

    L: int
    a: int
    b: int
    window: np.ndarray

    def __post_init__(self):
        L, a, b = lattice_steps(self.L, self.a, self.b)
        w = np.array(self.window, dtype=complex)  # a copy: the caller may reuse its array
        if w.shape != (L,):
            raise InvalidLattice("window length must equal L")
        if not np.isfinite(w).all():  # an inf entry stalls the SVD of analyze_system
            raise InvalidParameter("window entries must be finite")
        w.setflags(write=False)
        for name, value in (("L", L), ("a", a), ("b", b), ("window", w)):
            object.__setattr__(self, name, value)

    @property
    def n_time(self) -> int:
        return self.L // self.a

    @property
    def n_freq(self) -> int:
        return self.L // self.b


@dataclass(frozen=True)
class WalnutCoefficients:
    """Coefficient vectors G_q, q = 0..b-1, of S = scale * sum_q diag(G_q) T_{qL/b}.

    G_0 = sum_k |T_{ka} g|^2 is real, non-negative and a-periodic; `scale`
    records the constant (L/b) that makes the representation match the
    directly assembled frame operator.
    """

    G: np.ndarray  # (b, L) complex
    scale: float


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace of C^L, kept block by block.

    `blocks` is an (F, n, k) stack with L = F n: row j of block r is signal
    index r + j F, the layout of `walnut_fibres`, so block r spans the part
    of the subspace on the fibre {r + j F : j < n}.  The first `ranks[r]`
    columns of block r are orthonormal and the rest are zero.  A dense
    L x k basis is the case F = 1.
    """

    blocks: np.ndarray  # (F, n, k)
    ranks: np.ndarray = field(init=False, repr=False, compare=False)  # (F,)

    def __post_init__(self):
        q = np.asarray(self.blocks, dtype=complex)
        gram = q.conj().swapaxes(1, 2) @ q
        ranks = np.count_nonzero(gram.diagonal(axis1=1, axis2=2).real > 0.5, axis=1)
        kept = np.arange(q.shape[2]) < ranks[:, None]
        if np.linalg.norm(gram - kept[:, None, :] * np.eye(q.shape[2])) > 1e-10 * max(
            1.0, np.sqrt(ranks.sum())
        ):
            raise ValueError("blocks are not orthonormal")
        object.__setattr__(self, "blocks", q)
        object.__setattr__(self, "ranks", ranks)

    @property
    def rank(self) -> int:
        return int(self.ranks.sum())

    def project(self, f: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a signal or of the columns of an (L, m) array."""
        F, n, _ = self.blocks.shape
        x = f.reshape(n, F, -1).swapaxes(0, 1)
        y = self.blocks @ (self.blocks.conj().swapaxes(1, 2) @ x)
        return y.swapaxes(0, 1).reshape(f.shape)

    def projector(self) -> np.ndarray:
        """The dense L x L projection matrix."""
        F, n, _ = self.blocks.shape
        return self.project(np.eye(F * n, dtype=complex))


class FrameBounds(NamedTuple):
    lower: float
    upper: float
    rank: int
    is_riesz_sequence: bool

    def to_json_dict(self) -> dict:
        return self._asdict()


class DualWindowResult(NamedTuple):
    gamma: np.ndarray
    span: SubspaceBasis


def gabor_matrix(sys: FiniteGaborSystem) -> np.ndarray:
    """Synthesis matrix, one column pi(k*a, l*b) g per lattice point.

    Column order: index l*N + k (time index k fastest), N = L/a.
    """
    l, k = np.divmod(np.arange(sys.n_time * sys.n_freq), sys.n_time)
    return tf_shifts(sys.window, k * sys.a, l * sys.b)


def frame_operator_direct(sys: FiniteGaborSystem) -> np.ndarray:
    """S = D D^H for the synthesis matrix D; Hermitian positive semidefinite."""
    D = gabor_matrix(sys)
    return D @ D.conj().T


def frame_operator_walnut(
    sys: FiniteGaborSystem,
) -> tuple[np.ndarray, WalnutCoefficients]:
    """Assemble S as (L/b) * sum_{q=0}^{b-1} diag(G_q) T_{q L/b}.

    G_q[n] = sum_{k=0}^{N-1} g[n - k a] conj(g[n - q L/b - k a]); the result
    equals `frame_operator_direct` up to rounding (the scale L/b is the
    finite counterpart of 1/beta).  S is scattered from its Walnut blocks
    (L/b) Z_r Z_r^H, and G_q[n] = S[n, n - q L/b] / (L/b) is read back.
    """
    L, b, P, n = sys.L, sys.b, sys.n_freq, np.arange(sys.L)
    Z = walnut_fibres(sys.window, sys.a, b)
    rows = n.reshape(b, P).T  # rows[r, j] = r + j P
    S = np.zeros((L, L), dtype=complex)
    S[rows[:, :, None], rows[:, None, :]] = P * Z @ Z.conj().swapaxes(1, 2)
    G = S[n, (n - np.arange(b)[:, None] * P) % L] / P
    return S, WalnutCoefficients(G=G, scale=float(P))


def orthonormal_range(
    A: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL
) -> SubspaceBasis:
    """Orthonormal basis of the column space of A, an (L, c) matrix or an (F, n, c)
    stack in the layout of `SubspaceBasis`: one cut, s > rank_tol * s_max over
    all blocks.
    """
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    keep = s > rank_tol * s.max(initial=0.0)
    return SubspaceBasis((U * keep[..., None, :]).reshape(-1, *U.shape[-2:]))


def walnut_fibres(g: np.ndarray, t_step: int, f_step: int) -> np.ndarray:
    """Z[r, j, k] = g[r + j P - k t_step] with P = L/f_step, one index gather.

    The frame operator of the system (t_step, f_step) restricted to the fibre
    {r + j P : j < f_step} is P * Z[r] Z[r]^H, and it vanishes between fibres.
    The fibre of a signal x is x.reshape(f_step, P).T[r].  A stack of
    windows g[:, i] gives Z[r, j, k, i], the fibres of the union of their systems.
    """
    L = g.shape[0]
    r, j, k = np.ogrid[: L // f_step, :f_step, : L // t_step]
    return g[(r + j * (L // f_step) - k * t_step) % L]


def tf_inner_products(f: np.ndarray, h: np.ndarray, t_step: int, f_step: int) -> np.ndarray:
    """<f, pi(k t_step, l f_step) h> as an (L/t_step, L/f_step) array [k, l]: row k
    is the FFT of f conj(T_{k t_step} h) folded modulo L/f_step, times a phase.
    """
    L = f.shape[0]
    P, k = L // f_step, np.arange(L // t_step)[:, None]
    folded = (f * h.conj()[(np.arange(L) - k * t_step) % L]).reshape(len(k), f_step, P).sum(axis=1)
    return np.fft.fft(folded, axis=1) * np.exp(2j * np.pi * (k * np.arange(P) * t_step % P) / P)


@dataclass(frozen=True)
class SystemAnalysis:
    """The one spectral factorization of a system that its consumers share.

    `eigenvalues` is the ascending spectrum of S, the union of the spectra of
    its L/b Walnut blocks, from one batched SVD; `frame` and `dual` are
    read from it.
    """

    system: FiniteGaborSystem
    rank_tol: float
    eigenvalues: np.ndarray
    frame: FrameBounds
    dual: DualWindowResult


def analyze_system(
    sys: FiniteGaborSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> SystemAnalysis:
    """Spectrum of S, frame bounds, span and dual window, block by block.

    Eigenvalues above rank_tol * lambda_max (over all blocks) are inverted in
    gamma = S^+ g, the rest dropped; the retained eigenvectors, kept in their
    L/b blocks, span ran(S), the space the system spans; the invariance scan,
    criterion (i) and the DFT-vector identity read this span.
    """
    check_tolerance("rank_tol", rank_tol)
    L, P = sys.L, sys.n_freq
    Z = walnut_fibres(sys.window, sys.a, sys.b)
    # the SVD of Z_r resolves an eigenvalue lam of S to eps sqrt(lam_max lam),
    # eigh of Z_r Z_r^H only to eps lam_max; blocks with b > N add zeros
    V, s, _ = np.linalg.svd(Z, full_matrices=False)
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        lam = P * s**2
    spectrum = np.sort(np.concatenate([lam.ravel(), np.zeros(L - lam.size)]))
    if spectrum[-1] <= 0:
        raise ZeroWindow("frame operator is zero")
    if spectrum[-1] == np.inf:
        raise InvalidParameter("frame operator overflows: lambda_max is not finite")
    keep = lam > rank_tol * spectrum[-1]  # the one spectral cut; padded zeros never pass
    kept = np.sort(lam[keep])
    frame = FrameBounds(float(kept[0]), float(kept[-1]), kept.size, kept.size == sys.n_time * P)
    inv = keep / np.where(keep, lam, 1.0)
    blocks = (V * inv[:, None, :]) @ V.conj().swapaxes(1, 2)
    gamma = (blocks @ sys.window.reshape(sys.b, P).T[..., None])[..., 0].T.ravel()
    span = SubspaceBasis(V * keep[:, None, :])
    return SystemAnalysis(sys, rank_tol, spectrum, frame, DualWindowResult(gamma, span))


def canonical_dual(
    sys: FiniteGaborSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> DualWindowResult:
    """Dual window gamma = S^+ g via the spectral pseudoinverse of S."""
    return analyze_system(sys, rank_tol).dual


def frame_bounds(
    sys: FiniteGaborSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> FrameBounds:
    """Spectral frame bounds on the span and the Riesz-sequence flag.

    A, B are the extreme eigenvalues of S above rank_tol * lambda_max.  The
    Gram matrix D^H D shares the nonzero spectrum of S = D D^H, so the N*M
    vectors form a Riesz sequence exactly when S keeps N*M eigenvalues.
    """
    return analyze_system(sys, rank_tol).frame


def _window_pair(
    gamma, g, t_step: int, f_step: int
) -> tuple[np.ndarray, np.ndarray, int, int, int]:
    """Both windows as complex arrays, their length L and the steps as ints dividing L."""
    gamma = np.asarray(gamma, dtype=complex)
    g = np.asarray(g, dtype=complex)
    L = g.shape[0]
    message = f"steps must divide L: L={L}, t_step={t_step}, f_step={f_step}"
    t_step, f_step = exact_ints((t_step, f_step), (2,), InvalidLattice, message, 1, L)
    return gamma, g, L, t_step, f_step


def cross_frame_operator(
    gamma: np.ndarray, g: np.ndarray, t_step: int, f_step: int
) -> np.ndarray:
    """S_{gamma,g} f = sum_{k,l} <f, pi(k t_step, l f_step) gamma> pi(...) g."""
    gamma, g, L, t_step, f_step = _window_pair(gamma, g, t_step, f_step)
    Dg = gabor_matrix(FiniteGaborSystem(L, t_step, f_step, g))
    Dgam = gabor_matrix(FiniteGaborSystem(L, t_step, f_step, gamma))
    return Dg @ Dgam.conj().T


def janssen_representation(
    gamma: np.ndarray, g: np.ndarray, t_step: int, f_step: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Expand S_{gamma,g} over the adjoint lattice (L/f_step, L/t_step).

    Returns (S, coefficients, constant) with

        S = constant * sum_{m,n} <g, pi(m L/f_step, n L/t_step) gamma> pi(...),

    constant = L/(t_step*f_step), the finite counterpart of alpha*beta/nu.
    The (f_step, t_step) coefficient array is returned for decay inspection.
    The terms with time shift m L/f_step fill the diagonal n -> n + m L/f_step
    of S, whose entries are the coefficients' row m times a phase table.
    """
    gamma, g, L, t_step, f_step = _window_pair(gamma, g, t_step, f_step)
    tau, phi = L // f_step, L // t_step  # adjoint steps: time tau, frequency phi
    constant = L / (t_step * f_step)
    coef = tf_inner_products(g, gamma, tau, phi)  # <g, pi(m tau, n phi) gamma>
    n = np.arange(L)
    # pi(m tau, k phi)[n + m tau, n] = exp(2 pi i k n / t_step)
    phases = np.exp(2j * np.pi * (np.arange(t_step)[:, None] * n % t_step) / t_step)
    S = np.zeros((L, L), dtype=complex)
    S[(n + np.arange(f_step)[:, None] * tau) % L, n] = constant * (coef @ phases)
    return S, coef, constant


def periodized_gaussian(L: int, c: float) -> np.ndarray:
    """Unit-norm periodization of exp(-c x^2) sampled at x = n/sqrt(L).

    Terms are added symmetrically until the next one falls below 1e-17 of
    the running maximum.  For c = pi the result is DFT-invariant.
    """
    L = exact_int(L, InvalidParameter, f"L must be >= 4, got {L}", 4)
    if not 0 < c < np.inf:  # a NaN or infinite width never meets the stopping test
        raise InvalidParameter(f"Gaussian width c must be finite and positive, got {c}")
    if c * L < np.pi**2 / np.log(1e17):
        # Poisson summation: the periodization varies by a relative 2 exp(-pi^2/(c L)),
        # below the 1e-17 stopping rule of the loop, which would need ~(c L)^(-1/2) terms
        return np.full(L, 1 / np.sqrt(L))
    n = np.arange(L)
    centered = ((n + L // 2) % L) - L // 2
    g = np.exp(-c * (centered / np.sqrt(L)) ** 2)
    j = 1
    while True:
        term = np.exp(-c * ((centered + j * L) / np.sqrt(L)) ** 2) + np.exp(
            -c * ((centered - j * L) / np.sqrt(L)) ** 2
        )
        g += term
        if term.max() < 1e-17 * g.max():
            break
        j += 1
    return g / np.linalg.norm(g)


def support_space(
    window: np.ndarray, a: int, tol: float = 1e-12
) -> tuple[SubspaceBasis, np.ndarray]:
    """Coordinate subspace on E = {n : h[n] > tol * max h}, h = sum_k |T_{ka} g|^2.

    h is the q = 0 Walnut coefficient of the system with time step a; under
    full modulation invariance the span of the system is exactly the set of
    signals supported on E.  Returns the basis (L blocks of one entry) and h.
    """
    g = np.asarray(window, dtype=complex)
    L = g.shape[0]
    a = exact_int(a, InvalidLattice, f"time step must divide L: L={L}, a={a}", 1, L)
    if not np.any(g):
        raise ZeroWindow("window is zero")
    h = np.tile((np.abs(g) ** 2).reshape(L // a, a).sum(axis=0), L // a)
    return SubspaceBasis((h > tol * h.max())[:, None, None]), h
