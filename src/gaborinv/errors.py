"""Exception types, default tolerances and the precondition readers shared
across the toolkit.

Every precondition named in a module contract maps to one class here, so
callers (and the CLI) can report the violated precondition by name.  The
readers (`check_tolerance`, `exact_int`, `exact_ints`) are the one place that
decides what a tolerance or an integer parameter is.  This module imports no
numpy: the exact layer loads without it.
"""

DEFAULT_TOL = 1e-6  # residual threshold of the invariance verdicts
# spectral cut: an eigenvalue of S is kept when lam > DEFAULT_RANK_TOL * lam_max, a singular
# value of the slices, K and the completeness blocks when s > DEFAULT_RANK_TOL * s_max
DEFAULT_RANK_TOL = 1e-8


class GaborError(Exception):
    """Base class for all toolkit errors."""


# exact lattice algebra
class InvalidLattice(GaborError):
    """Singular basis, or lattice parameters violating a divisibility contract."""


class NotAnExtraShift(GaborError):
    """The shift (r, s) = (0, 0) is a lattice point, not an extra invariant shift."""


class InvalidOrder(GaborError):
    """Order parameter m out of range (m >= 2 required)."""


class InvalidIndex(GaborError):
    """Coset index q < 1."""


# density estimation
class InvalidModulus(GaborError):
    """Excluded-residue modulus nu < 2."""


class InvalidMatrix(GaborError):
    """Singular transformation matrix."""


# finite Gabor model
class InvalidParameter(GaborError):
    """Scalar parameter out of its admissible range (e.g. Gaussian width c <= 0)."""


class ZeroWindow(GaborError):
    """The window is (numerically) zero."""


class ZeroInput(GaborError):
    """A nonzero input signal is required."""


# invariance engine
class InvalidRefinement(GaborError):
    """Refinement does not divide the lattice steps."""


class InvalidNu(GaborError):
    """nu < 2 or nu does not divide the time step."""


class NotFrameSequence(GaborError):
    """The system is not a frame for its span (zero/degenerate window)."""


class DegenerateInput(GaborError):
    """Linearly dependent shift vectors."""


class NotUndersampled(GaborError):
    """The scenario requires a*b > L (density below one)."""


# metaplectic operators
class NotSymplectic(GaborError):
    """det B != 1 (mod L)."""


class UnsupportedLength(GaborError):
    """Chirp generators require odd L."""


class UnsupportedTransport(GaborError):
    """Operator and system live on different signal lengths."""


def check_tolerance(name: str, value: float) -> None:
    """InvalidParameter unless 0 < value < 1, which NaN fails."""
    if not 0 < value < 1:
        raise InvalidParameter(f"{name} must lie in (0, 1), got {value!r}")


def exact_int(value, error: type, message: str, low=None, divides=None) -> int:
    """`value` as a Python int, at least `low` and dividing `divides` when given
    (`divides` needs `low` >= 1), else error(message).  Integral floats and numpy
    ints read as ints; 1.5 is rejected, never truncated; big ints stay exact."""
    if type(value) is not int:
        try:
            n = int(value)
        except (TypeError, ValueError, OverflowError):
            raise error(message) from None
        if n != value:
            raise error(message)
        value = n
    if (low is not None and value < low) or (divides is not None and divides % value):
        raise error(message)
    return value


def exact_ints(values, shape: tuple, error: type, message: str, low=None, divides=None) -> tuple:
    """`exact_int` over every entry of a pair, shape (2,), or a 2x2 matrix, shape
    (2, 2), returned as nested tuples; error(message) when the shape differs."""
    try:
        rows = tuple(values)
    except TypeError:
        raise error(message) from None
    if len(rows) != shape[0]:
        raise error(message)
    if len(shape) > 1:
        return tuple(exact_ints(row, shape[1:], error, message, low, divides) for row in rows)
    return tuple(exact_int(v, error, message, low, divides) for v in rows)
