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
Only G = gcd(a, L/b) of the blocks are distinct: with x (L/b) = G mod a and
y = (x L/b - G)/a, block r0 + q G is Z_r0[(j + q x) mod b, (k + q y) mod L/a],
a row and column roll of block r0 < G (Strohmer 1998; Sondergaard 2012;
`orbit_map`).  So every Walnut-block SVD of the package factors the G orbit
representatives (`fibre_representatives`) only; the analysis cuts and inverts
on them and gathers each span to every block once, through the orbit map.  The
adjoint system (L/b, L/a) needs no SVD of its own: its block r0 < G is block r0
of (a, b) transposed, rows and columns index-reversed (Walnut duality; Janssen
1995), so its left singular vectors are the right ones of (a, b).
The Walnut and Janssen forms are scattered from these blocks and from the
inner-product table, and the windows pi(t_i, m_i) f are one gather
(`tf_shifts`).  The blocks and the table read the translates x[(n - k t) mod L]
as slices of one sliding-window view of the doubled signal (`translates`), so
no index array mod L is built.  Matrices are never mutated.  The one stored
state is the analysis of a system: `analyze_system` keeps its `SystemAnalysis`
on the `FiniteGaborSystem`, one per rank_tol, with read-only arrays.  It holds
both spans of the one batched SVD, V = ran(S) and the adjoint system's span K, so
the criteria, the scan, the dual window and the frame bounds of one system
share one factorization; every other function is pure.  Every rank is cut by
one rule, `rank_cut`: s > rank_tol * s_max over all blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DEFAULT_RANK_TOL,
    InvalidLattice,
    InvalidParameter,
    ZeroWindow,
    check_positive,
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
    "fibre_representatives",
    "orbit_map",
    "tf_shift",
    "tf_shifts",
    "translates",
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
    "rank_cut",
]


def tf_shift(f: np.ndarray, t: int, m: int) -> np.ndarray:
    """Apply pi(t, m) = T_t M_m to a length-L signal, for integers t and m (mod L)."""
    f = np.asarray(f)
    if f.ndim != 1 or len(f) == 0:
        raise InvalidParameter(f"tf_shift needs a signal of length L >= 1, got shape {f.shape}")
    message = f"tf_shift needs integers t and m, got t={t!r}, m={m!r}"
    t, m = exact_ints((t, m), (2,), InvalidParameter, message)
    return tf_shifts(f, t, m)[:, 0]


def tf_shifts(f: np.ndarray, t, m) -> np.ndarray:
    """Columns pi(t_i, m_i) f for integers or integer arrays t, m (broadcast), read mod L.

    The time index n - t_i is taken from t_i mod L, reduced on the short array, plus L
    where it is negative, so no modulus runs over it.  A float, even an integral one,
    a string or a signal that is not a non-empty vector is InvalidParameter
    (`tf_shift` reads integral floats).
    """
    f = np.asarray(f)
    if f.ndim != 1 or len(f) == 0:
        raise InvalidParameter(f"tf_shifts needs a signal of length L >= 1, got shape {f.shape}")
    L = len(f)
    try:
        t, m = np.broadcast_arrays(_residues(t, L), _residues(m, L))
    except TypeError:  # the message is built only here: the repr of an array is slow
        raise InvalidParameter(f"tf_shifts needs integer shifts, got t={t!r}, m={m!r}") from None
    idx = np.arange(L)[:, None] - t
    np.add(idx, L, out=idx, where=idx < 0)
    k = np.multiply(m, idx)
    k -= k // L * L  # k mod L, for k >= 0: numpy's // by a scalar is the faster division
    out = np.asarray(f, dtype=np.result_type(f, 1j))[idx]  # f times the phases, cast first
    out *= np.exp(2j * np.pi * np.arange(L) / L)[k]
    return out


def _residues(v, L: int) -> np.ndarray:
    """An integer or integer array v mod L as an intp array, Python ints beyond int64
    reduced exactly; TypeError for anything else."""
    v = np.asarray(v)
    if v.dtype.kind not in "iu" and (
        v.dtype != object or not all(isinstance(x, (int, np.integer)) for x in v.flat)
    ):
        raise TypeError
    return np.asarray(v % L, dtype=np.intp)


def translates(x: np.ndarray, t_step: int) -> np.ndarray:
    """The translates T_{k t_step} x, k < ceil(L/t_step), of a signal or of each column of
    an (L, c) stack, as the rows of a read-only (K, L) or (K, c, L) view: row k,
    x[(n - k t_step) mod L], is window L - k t_step of the doubled signal, a slice of
    `sliding_window_view`, so no index array is built.  Copy it before writing."""
    L = x.shape[0]
    return sliding_window_view(np.concatenate([x, x]), L, axis=0)[L:0:-t_step]


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
    # the SystemAnalysis of each rank_tol, filled by analyze_system; a replaced system starts empty
    _analyses: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            raise InvalidParameter("blocks are not orthonormal")
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
    return SubspaceBasis((U * rank_cut(s, rank_tol)[..., None, :]).reshape(-1, *U.shape[-2:]))


def rank_cut(s: np.ndarray, rank_tol: float) -> np.ndarray:
    """The mask s > rank_tol * s_max over all of s, the package's one rank rule:
    a value at the threshold is dropped, and an all-zero s keeps nothing."""
    return s > rank_tol * s.max(initial=0.0)


def walnut_fibres(g: np.ndarray, t_step: int, f_step: int) -> np.ndarray:
    """Z[r, j, k] = g[r + j P - k t_step] with P = L/f_step, one copy of a view.

    The frame operator of the system (t_step, f_step) restricted to the fibre
    {r + j P : j < f_step} is P * Z[r] Z[r]^H, and it vanishes between fibres.
    The fibre of a signal x is x.reshape(f_step, P).T[r].  A stack of
    windows g[:, i] gives Z[r, j, k, i], the fibres of the union of their systems.
    With G = gcd(t_step, P), x P = G mod t_step and y = (x P - G)/t_step,
    Z[r0 + q G][j, k] = Z[r0][(j + q x) mod f_step, (k + q y) mod L/t_step]
    for r0 < G, because q G + j P - k t_step = (j + q x) P - (k + q y) t_step:
    pure index algebra, so it holds bit for bit for any window or stack.
    """
    return _fibres(g, t_step, f_step, g.shape[0] // f_step)


def _fibres(g: np.ndarray, t_step: int, f_step: int, blocks: int) -> np.ndarray:
    """The first `blocks` Walnut blocks of `walnut_fibres`: entry j P + r of row k of
    `translates`, sliced from that view and copied once, C-contiguous."""
    rows = translates(g, t_step)  # (N, L) or (N, c, L)
    rows = rows.reshape(*rows.shape[:-1], f_step, g.shape[0] // f_step)[..., :blocks]
    axes = (2, 1, 0) if g.ndim == 1 else (3, 2, 0, 1)
    return np.array(rows.transpose(axes), order="C")


def orbit_map(L: int, t_step: int, f_step: int) -> tuple[np.ndarray, np.ndarray]:
    """The orbit map of the Walnut blocks of (t_step, f_step) on C^L: block r = r0 + q G
    (G = gcd(t_step, P), P = L/f_step) is block orbit[r] = r0 of `fibre_representatives`
    with row j read from rows[r, j] = (j + q x) mod f_step, where x is the inverse of
    P/G modulo t_step/G, so x P = G mod t_step (x = 0 when G = t_step).  A span on the
    representatives U is gathered to every block as U[orbit[:, None], rows]."""
    P = L // f_step
    G = gcd(t_step, P)
    q, orbit = np.divmod(np.arange(P), G)
    return orbit, (np.arange(f_step) + (q * pow(P // G, -1, t_step // G))[:, None]) % f_step


def fibre_representatives(g: np.ndarray, t_step: int, f_step: int) -> np.ndarray:
    """The G = gcd(t_step, L/f_step) distinct Walnut blocks as a (G, f_step, c) stack."""
    G = gcd(t_step, g.shape[0] // f_step)
    return _fibres(g, t_step, f_step, G).reshape(G, f_step, -1)


# the most entries of f conj(T_{k t_step} h) that `tf_inner_products` forms at once: the
# product and numpy's buffers for its strided operands then stay at 64 KiB each, below
# glibc's default 128 KiB threshold for serving malloc by mmap (fresh pages to fault in)
_FOLD_ENTRIES = 2**12


def tf_inner_products(f: np.ndarray, h: np.ndarray, t_step: int, f_step: int) -> np.ndarray:
    """<f, pi(k t_step, l f_step) h> as an (L/t_step, L/f_step) array [k, l]: row k
    is the FFT of f conj(T_{k t_step} h) folded modulo P = L/f_step, times a phase.
    The rows conj(T_{k t_step} h) are slices of `translates`, multiplied and folded a
    few at a time, so no L x L/t_step product and no index array is built.
    """
    L = f.shape[0]
    P, k = L // f_step, np.arange(L // t_step)[:, None]
    rows, step = translates(h.conj(), t_step), max(1, _FOLD_ENTRIES // L)
    folded = np.empty((len(k), P), dtype=np.result_type(f, h))
    for i in range(0, len(k), step):  # the sum over j is numpy's, so is its rounding
        chunk = f * rows[i : i + step]
        chunk.reshape(len(chunk), f_step, P).sum(axis=1, out=folded[i : i + step])
    phases = np.exp(2j * np.pi * np.arange(P) / P)[k * np.arange(P) * t_step % P]
    return np.fft.fft(folded, axis=1) * phases


@dataclass(frozen=True)
class SystemAnalysis:
    """The one spectral factorization of a system that its consumers share.

    `eigenvalues` is the ascending spectrum of S, the union of the spectra of its
    L/b Walnut blocks, from one batched SVD of the G distinct ones; `frame` and
    `dual` are read from it.  Both spans of that SVD are cut by `rank_cut` on the
    representatives and gathered to every block: V = ran(S) as `dual.span` (L/b
    blocks, cut on lambda = (L/b) s^2) and K, the span of the adjoint system
    (L/b, L/a), as `adjoint_span` (a blocks, cut on s).  `analyze_system` stores
    it on the system, so every caller holds the same object: `eigenvalues`,
    `dual.gamma` and the blocks and ranks of both spans are read-only.
    """

    system: FiniteGaborSystem
    rank_tol: float
    eigenvalues: np.ndarray
    frame: FrameBounds
    dual: DualWindowResult
    adjoint_span: SubspaceBasis


def analyze_system(
    sys: FiniteGaborSystem, rank_tol: float = DEFAULT_RANK_TOL
) -> SystemAnalysis:
    """Spectrum of S, frame bounds, span and dual window, block by block.

    Eigenvalues above rank_tol * lambda_max (over all blocks) are inverted in
    gamma = S^+ g, the rest dropped; the retained eigenvectors, kept in their
    L/b blocks, span ran(S), the space the system spans; the invariance scan,
    criterion (i) and the DFT-vector identity read this span.  ZeroWindow for
    an all-zero window, InvalidParameter when lambda_max or the reciprocal of a
    kept eigenvalue leaves the float range.

    The analysis is computed on the first call for each rank_tol and stored on
    the system; later calls, also from `canonical_dual`, `frame_bounds`, the
    criteria engine and the scan, return the stored object.  A call that
    raises stores nothing.
    """
    check_tolerance("rank_tol", rank_tol)
    an = sys._analyses.get(rank_tol)
    if an is None:  # two concurrent first calls both compute; both get the one stored
        an = sys._analyses.setdefault(rank_tol, _analyze(sys, rank_tol))
    return an


def _analyze(sys: FiniteGaborSystem, rank_tol: float) -> SystemAnalysis:
    """The body of `analyze_system`, on a checked rank_tol, with read-only arrays."""
    if not np.any(sys.window):
        raise ZeroWindow("frame operator is zero")
    L, P, N = sys.L, sys.n_freq, sys.n_time
    # the SVD of Z_r resolves an eigenvalue lam of S to eps sqrt(lam_max lam),
    # eigh of Z_r Z_r^H only to eps lam_max; blocks with b > N add zeros
    U, s, Vh = np.linalg.svd(fibre_representatives(sys.window, sys.a, sys.b), full_matrices=False)
    orbit, rows = orbit_map(L, sys.a, sys.b)
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        lam = P * s**2
    spectrum = np.sort(np.concatenate([lam[orbit].ravel(), np.zeros(L - P * lam.shape[1])]))
    if spectrum[-1] == 0:  # g != 0: (L/b) s^2 underflowed in every block
        raise InvalidParameter("frame operator underflows: lambda_max is 0")
    if spectrum[-1] == np.inf:
        raise InvalidParameter("frame operator overflows: lambda_max is not finite")
    keep = rank_cut(lam, rank_tol)  # lam's max is spectrum[-1]; padded zeros never pass
    with np.errstate(over="ignore"):  # 1/lam of a subnormal lam is inf, rejected below
        inv = keep / np.where(keep, lam, 1.0)
    if not np.isfinite(inv).all():
        raise InvalidParameter("frame operator underflows: a kept 1/lambda is not finite")
    span = _gathered_span(U, keep, orbit, rows)
    V, kept = span.blocks, lam[keep]
    frame = FrameBounds(float(kept.min()), float(kept.max()), span.rank, span.rank == N * P)
    x = sys.window.reshape(sys.b, P).T[..., None]  # the fibres of g
    gamma = (V @ (inv[orbit][..., None] * (V.conj().swapaxes(1, 2) @ x)))[..., 0].T.ravel()
    # K's block r0 < G is Z_r0^T with row k read from -k mod N (Walnut duality), so its
    # left singular vectors are Vh[r0]^T so reversed, with the singular values s
    K = _gathered_span(Vh.swapaxes(1, 2)[:, -np.arange(N) % N], rank_cut(s, rank_tol),
                       *orbit_map(L, P, N))
    for shared in (spectrum, gamma, span.blocks, span.ranks, K.blocks, K.ranks):
        shared.setflags(write=False)
    return SystemAnalysis(sys, rank_tol, spectrum, frame, DualWindowResult(gamma, span), K)


def _gathered_span(
    U: np.ndarray, keep: np.ndarray, orbit: np.ndarray, rows: np.ndarray
) -> SubspaceBasis:
    """The span whose G orbit representatives are U's columns kept by `keep`, checked
    there by `SubspaceBasis` and gathered to every block once: a row permutation of
    an orthonormal block is orthonormal, so the gathered blocks are not checked again."""
    span = SubspaceBasis(U * keep[:, None, :])
    object.__setattr__(span, "blocks", span.blocks[orbit[:, None], rows])
    object.__setattr__(span, "ranks", span.ranks[orbit])
    return span


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


def cross_frame_operator(
    gamma: np.ndarray, g: np.ndarray, t_step: int, f_step: int
) -> np.ndarray:
    """S_{gamma,g} f = sum_{k,l} <f, pi(k t_step, l f_step) gamma> pi(...) g."""
    sys_g = FiniteGaborSystem(np.size(g), t_step, f_step, g)
    sys_gamma = FiniteGaborSystem(sys_g.L, t_step, f_step, gamma)
    return gabor_matrix(sys_g) @ gabor_matrix(sys_gamma).conj().T


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
    sys_g = FiniteGaborSystem(np.size(g), t_step, f_step, g)
    L, t_step, f_step = sys_g.L, sys_g.a, sys_g.b
    tau, phi = L // f_step, L // t_step  # adjoint steps: time tau, frequency phi
    constant = L / (t_step * f_step)
    gamma = FiniteGaborSystem(L, t_step, f_step, gamma).window
    coef = tf_inner_products(sys_g.window, gamma, tau, phi)  # <g, pi(m tau, n phi) gamma>
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
    check_positive("c", c)  # a NaN or infinite width never meets the stopping test
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
