"""Command-line front end.

Subcommands: reduce, separate, order, criteria, scan, density, gaussian,
equidistribution, dual-window.  Long-form flags only.  Every run writes
run_manifest.json (config echo, library version, calibrated constants) into
--output-dir, so identical flags reproduce byte-identical outputs.

Exit codes: 0 success, 1 parse error, 2 precondition violation (the
violated class named on stderr: a toolkit error, a ValueError, or a
MemoryError for an input too large to hold), 3 analysis-level negative
verdict.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, lattice, serialize
from .errors import DEFAULT_RANK_TOL, DEFAULT_TOL, GaborError, InvalidNu, exact_int

if TYPE_CHECKING:
    import numpy as np

PARSE_ERROR, PRECONDITION_ERROR, VERDICT_NEGATIVE = 1, 2, 3

_NAMED_CONSTANTS = {"sqrt2": math.sqrt(2.0), "sqrt5": math.sqrt(5.0), "pi": math.pi}


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 1 for parse errors (argparse uses 2)
    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(PARSE_ERROR)


def _rational(text: str) -> Fraction:
    try:
        return lattice.as_fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


def _real(text: str) -> float:
    """Plain float or 'p/q' rational; a zero q or a p/q past the float range is not."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}") from exc


def _real_or_named(text: str) -> float:
    """Real number, with named irrational constants (sqrt2, sqrt5, pi).

    Only the density/equidistribution commands accept the named constants;
    everywhere else the exact and float domains stay visibly separate.
    """
    if text in _NAMED_CONSTANTS:
        return _NAMED_CONSTANTS[text]
    return _real(text)


def _real_list(text: str) -> list[float]:
    return [_real_or_named(t) for t in text.split(",")]


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    return (_real_or_named(parts[0]), _real_or_named(parts[1]))


def _basis(text: str) -> lattice.RationalMatrix2x2:
    """Row-major rationals 'p/q,p/q;p/q,p/q'; invertibility is the command's check."""
    try:
        return lattice.RationalMatrix2x2([r.split(",") for r in text.split(";")])
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not a 2x2 rational basis: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gaborinv", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce", help="reduce an extra invariant shift (exact)")
    sp.add_argument("--a", type=_rational, required=True)
    sp.add_argument("--b", type=_rational, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)

    sp = sub.add_parser("separate", help="separable reduction of a rational lattice")
    sp.add_argument(
        "--basis",
        type=_basis,
        required=True,
        help="row-major rationals 'p/q,p/q;p/q,p/q'",
    )

    sp = sub.add_parser("order", help="order of a rational point in the quotient")
    sp.add_argument("--zx", type=_rational, required=True)
    sp.add_argument("--zy", type=_rational, required=True)
    sp.add_argument("--basis", type=_basis, default="1,0;0,1", help="lattice basis (default Z^2)")
    sp.add_argument("--n-max", type=int, default=10**6)

    def system_flags(sp, window=True):
        sp.add_argument("--L", type=int, required=True)
        sp.add_argument("--a", type=int, required=True)
        sp.add_argument("--b", type=int, required=True)
        if window:  # declared after --b: usage lines print flags in declaration order
            sp.add_argument(
                "--window",
                default="gaussian",
                help="gaussian | gaussian-sum | periodic-gaussian | @file.csv",
            )
        sp.add_argument("--c", type=_real, default=math.pi, help="Gaussian width")
        sp.add_argument("--tol", type=_real, default=DEFAULT_TOL)
        sp.add_argument("--rank-tol", type=_real, default=DEFAULT_RANK_TOL)

    sp = sub.add_parser("criteria", help="the four duality criteria")
    system_flags(sp)
    sp.add_argument("--nu", type=int, required=True)

    sp = sub.add_parser("scan", help="invariance scan on a refined grid")
    system_flags(sp)
    sp.add_argument("--nu", type=int, default=2, help="used by builtin windows")
    sp.add_argument("--refinement", type=int, required=True)

    sp = sub.add_parser("density", help="empirical lower Beurling density")
    sp.add_argument("--set", dest="which", default="omega", choices=["omega", "lattice"])
    sp.add_argument("--alpha", type=_real_or_named, default=1.0)
    sp.add_argument("--beta", type=_real_or_named, default=1.0)
    sp.add_argument("--nu", type=int, default=2)
    sp.add_argument("--R", type=_real_list, required=True, help="comma list of radii")
    sp.add_argument("--probe-grid", type=int, default=32)

    sp = sub.add_parser("gaussian", help="full undersampled-Gaussian pipeline")
    system_flags(sp, window=False)
    sp.add_argument("--nu", type=int, default=2)
    sp.add_argument("--refinement", type=int, required=True)

    sp = sub.add_parser("equidistribution", help="orbit density diagnostic")
    sp.add_argument("--z", type=_pair, required=True, help="direction 'x,y' (sqrt2 ok)")
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--t-step", type=_real_or_named, default=(math.sqrt(5) - 1) / 2)
    sp.add_argument("--alpha", type=_rational, default=Fraction(1))
    sp.add_argument("--beta", type=_rational, default=Fraction(1))

    sp = sub.add_parser("dual-window", help="canonical dual window gamma = S^+ g")
    system_flags(sp)

    for sp in sub.choices.values():
        sp.add_argument("--output-dir", default=".", help="where result files go")
    return p


def _builtin_window(name: str, L: int, a: int, b: int, nu: int, c: float) -> np.ndarray:
    """The Gaussian g0, or sum_j T_{j a/nu} g0 over nu (gaussian-sum) or L nu/a
    (periodic-gaussian) copies, normalized; the sums read the lattice first."""
    import numpy as np

    from . import gabor

    if name not in ("gaussian", "gaussian-sum", "periodic-gaussian"):
        raise argparse.ArgumentTypeError(f"unknown window {name!r}")
    g0 = gabor.periodized_gaussian(L, c)
    if name == "gaussian":
        return g0
    gabor.lattice_steps(L, a, b)  # InvalidLattice before L // (a // nu) divides by a step
    nu = exact_int(nu, InvalidNu, f"builtin window needs nu | a, got nu={nu}, a={a}", 1, a)
    step = a // nu
    copies = nu if name == "gaussian-sum" else L // step
    # complex translates copied and summed along axis 0 add the copies in order, with the
    # rounding of a loop over tf_shift (a real sum or a pairwise axis-1 sum changes the bits)
    w = np.array(gabor.translates(g0.astype(complex), step)[:copies]).sum(axis=0)
    return w / np.linalg.norm(w)


def _system(args):
    """The system of --L --a --b --window; ArgumentTypeError for a bad name, file or row."""
    from . import gabor

    if args.window.startswith("@"):
        try:
            w = serialize.load_signal_csv(args.window[1:])
        except (OSError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"cannot read window file: {exc}") from exc
    else:  # dual-window has no --nu; its builtin sums use nu = 2
        w = _builtin_window(args.window, args.L, args.a, args.b, getattr(args, "nu", 2), args.c)
    return gabor.FiniteGaborSystem(args.L, args.a, args.b, w)


def _manifest(args, constants: dict) -> dict:
    def echo(v):
        if isinstance(v, lattice.RationalMatrix2x2):  # as --basis is written
            return ";".join(",".join(row) for row in v.string_rows())
        return str(v) if isinstance(v, Fraction) else v

    config = {k: echo(v) for k, v in sorted(vars(args).items())}
    return {"version": __version__, "config": config, "constants": constants}


def _write_orthogonality_table(outdir: Path, inner: np.ndarray) -> None:
    """|<pi(k L/b, l L/a) gamma, g>| as rows k, l, value."""
    rows = ([k, l, v] for k, row in enumerate(inner.tolist()) for l, v in enumerate(row))
    serialize.save_csv(outdir / "orthogonality_table.csv", ["k", "l", "abs_inner_product"], rows)


# A command writes its side files and returns (payload, constants, exit code).


def _cmd_reduce(args, outdir: Path):
    res = lattice.reduce_invariant_shift(args.a, args.b, args.r, args.s, args.m)
    return res.to_json_dict(), {}, 0


def _cmd_separate(args, outdir: Path):
    C, sep = lattice.separate(lattice.Lattice2D(args.basis))
    payload = {
        "C": C.string_rows(),
        "det_C": lattice.rational_str(C.det()),
        "alpha": lattice.rational_str(sep.alpha),
        "beta": lattice.rational_str(sep.beta),
    }
    return payload, {}, 0


def _cmd_order(args, outdir: Path):
    n = lattice.order_in_lattice((args.zx, args.zy), lattice.Lattice2D(args.basis), args.n_max)
    return {"order": n, "n_max": args.n_max}, {}, 0 if n is not None else VERDICT_NEGATIVE


def _cmd_criteria(args, outdir: Path):
    from . import invariance

    rep = invariance.criteria_engine(_system(args), args.nu, args.tol, args.rank_tol)
    _write_orthogonality_table(outdir, rep.adjoint_inner_products)
    code = 0 if rep.verdict_consistent else VERDICT_NEGATIVE
    return rep.to_json_dict(), {"cross_frame_constant": rep.constant}, code


def _cmd_scan(args, outdir: Path):
    from . import invariance

    rep = invariance.scan_invariance(_system(args), args.refinement, args.tol, args.rank_tol)
    return rep.to_json_dict(), {}, 0 if rep.verdict != "inconclusive" else VERDICT_NEGATIVE


def _cmd_density(args, outdir: Path):
    from . import density

    if args.which == "lattice":
        specs = {"lattice": density.LatticePoints([[args.alpha, 0.0], [0.0, args.beta]])}
    else:
        full = density.omega_spec(args.alpha, args.beta, args.nu)
        specs = {"lattice_part": full.members[0], "product_part": full.members[1], "union": full}
    payload = {}
    for name, spec in specs.items():
        ests = density.lower_density_empirical(spec, args.R, args.probe_grid)
        payload[name] = [
            {"R": e.R, "theta": e.theta, "analytic": e.analytic, "gap": e.gap} for e in ests
        ]
        serialize.save_csv(
            outdir / f"density_{name}.csv",
            ["R", "theta", "analytic", "gap"],
            ([e.R, e.theta, e.analytic, e.gap] for e in ests),
        )
    return payload, {}, 0


def _cmd_gaussian(args, outdir: Path):
    from . import invariance

    rep = invariance.gaussian_corollary_scenario(
        args.L, args.a, args.b, args.c, args.nu, args.refinement, args.tol, args.rank_tol
    )
    _write_orthogonality_table(outdir, rep.criteria.adjoint_inner_products)
    code = 0 if rep.matches_expectations() else VERDICT_NEGATIVE
    return rep.to_json_dict(), {"cross_frame_constant": rep.criteria.constant}, code


def _cmd_equidistribution(args, outdir: Path):
    from . import density

    sep = lattice.SeparableLattice(args.alpha, args.beta)
    cov, disc = density.equidistribution_diagnostic(args.z, sep, args.t_step, args.n)
    return {"covering_radius": cov, "discrepancy": disc, "n_samples": args.n}, {}, 0


def _cmd_dual_window(args, outdir: Path):
    from . import gabor

    an = gabor.analyze_system(_system(args), args.rank_tol)
    serialize.save_signal_csv(outdir / "dual_window.csv", an.dual.gamma)
    payload = {
        "gamma_csv": "dual_window.csv",
        "span_rank": an.dual.span.rank,
        "frame_bounds": an.frame.to_json_dict(),
    }
    return payload, {}, 0


_COMMANDS = {
    "reduce": _cmd_reduce,
    "separate": _cmd_separate,
    "order": _cmd_order,
    "criteria": _cmd_criteria,
    "scan": _cmd_scan,
    "density": _cmd_density,
    "gaussian": _cmd_gaussian,
    "equidistribution": _cmd_equidistribution,
    "dual-window": _cmd_dual_window,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        payload, constants, code = _COMMANDS[args.command](args, outdir)
    except argparse.ArgumentTypeError as exc:  # --window is resolved after parsing
        _sys.stderr.write(f"{parser.prog} {args.command}: error: argument --window: {exc}\n")
        return PARSE_ERROR
    except (GaborError, ValueError, MemoryError) as exc:
        _sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return PRECONDITION_ERROR
    serialize.dump_json(outdir / "run_manifest.json", _manifest(args, constants))
    _sys.stdout.write(serialize.dump_json(outdir / f"{args.command}_result.json", payload))
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
