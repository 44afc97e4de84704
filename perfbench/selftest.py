"""Shows that every correctness check of the benchmark fails on a corrupted output.

    python3 perfbench/selftest.py      (from the root of a gaborinv checkout)

Each case computes a real output on a small input, confirms the check
passes on it, then corrupts one field and confirms the check reports it.
Exits 1 if a check passes a correct output's corruption or rejects a
correct output.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gaborinv import density, gabor, invariance, lattice, symplectic  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

replace = dataclasses.replace


def system(name):
    rng = np.random.default_rng(0)
    spec = workloads.system_spec(60, 10, 10, 2, name, 2, rng)
    s = spec["sys"]
    scan = invariance.scan_invariance(s, 2)
    out = (invariance.criteria_engine(s, 2), scan, gabor.canonical_dual(s), gabor.frame_bounds(s),
           workloads.certify_scan(spec, scan))
    return spec, out


def system_cases():
    spec, (crit, scan, dual, fb, cert) = system("gaussian")
    pspec, (pcrit, pscan, pdual, pfb, pcert) = system("periodic-gaussian")

    def sc(**kw):
        args = dict(crit=crit, scan=scan, dual=dual, fb=fb, cert=cert) | kw
        return lambda: checks.system_checks(spec, **args)

    def psc(**kw):
        args = dict(crit=pcrit, scan=pscan, dual=pdual, fb=pfb, cert=pcert) | kw
        return lambda: checks.system_checks(pspec, **args)

    dropped = pscan.invariant_set[:-1]
    return [
        ("gaussian system", sc(), sc(dual=dual._replace(gamma=dual.gamma * 1.01))),
        ("frame upper bound", sc(), sc(fb=fb._replace(upper=fb.upper * 1.01))),
        ("frame rank", sc(), sc(fb=fb._replace(rank=fb.rank - 1))),
        ("Riesz flag", sc(), sc(fb=fb._replace(is_riesz_sequence=False))),
        ("criteria verdict", sc(), sc(crit=replace(crit, verdict="mixed"))),
        ("criteria consistency", sc(), sc(crit=replace(crit, verdict_consistent=False))),
        ("criterion (i)", psc(), psc(crit=replace(pcrit, holds=dict(pcrit.holds, i=False)))),
        ("periodic dual window", psc(), psc(dual=pdual._replace(gamma=pdual.gamma * 1.01))),
        ("scan verdict m", psc(), psc(scan=replace(pscan, verdict_m=pscan.verdict_m * 2))),
        ("scan detected set", psc(), psc(scan=replace(pscan, invariant_set=dropped))),
        ("exact order of a coset", psc(), psc(cert=dict(pcert, orders=[o + 1 for o in pcert["orders"]]))),
        ("density bound", sc(), sc(cert=dict(cert, density_bound=cert["density_bound"] * 1.01))),
    ]


def exact_cases():
    a, b, r, s, m = Fraction(3, 2), Fraction(5, 7), 4, 6, 9
    red = lattice.reduce_invariant_shift(a, b, r, s, m)
    B = [list(row) for row in red.B.entries]
    B[0][1] += 1
    bad_B = replace(red, B=lattice.RationalMatrix2x2(B))
    rows = [[Fraction(3, 2), Fraction(1, 3)], [Fraction(2, 5), Fraction(7, 4)]]
    C, sep = lattice.separate(lattice.Lattice2D(lattice.RationalMatrix2x2(rows)))
    unit = [[1, 0], [0, 1]]
    z = (Fraction(5, 12), Fraction(7, 18))
    n = lattice.order_in_lattice(z, lattice.Lattice2D(lattice.RationalMatrix2x2(unit)), 10**6)
    sl = lattice.SeparableLattice(Fraction(2, 3), Fraction(5, 4))
    adj, cos = lattice.adjoint_lattice(sl), lattice.coset_decomposition(sl, 4)
    return [
        ("reduction matrix", lambda: checks.reduction_checks(red, a, b, r, s, m),
         lambda: checks.reduction_checks(bad_B, a, b, r, s, m)),
        ("reduction d", lambda: checks.reduction_checks(red, a, b, r, s, m),
         lambda: checks.reduction_checks(replace(red, d=red.d + 1), a, b, r, s, m)),
        ("separation", lambda: checks.separation_checks((C, sep), rows),
         lambda: checks.separation_checks((C, replace(sep, alpha=sep.alpha * 2)), rows)),
        ("order off by one", lambda: checks.order_checks([(z, unit, n)]),
         lambda: checks.order_checks([(z, unit, n + 1)])),
        ("adjoint lattice", lambda: checks.adjoint_coset_checks(sl, 4, adj, cos),
         lambda: checks.adjoint_coset_checks(sl, 4, replace(adj, alpha=adj.beta, beta=adj.alpha), cos)),
        ("coset representatives", lambda: checks.adjoint_coset_checks(sl, 4, adj, cos),
         lambda: checks.adjoint_coset_checks(sl, 4, adj, cos[:1] * 4)),
    ]


class OffByOne:
    def __init__(self, spec):
        self.spec = spec

    def count_in_box(self, center, R):
        return self.spec.count_in_box(center, R) + 1


def density_cases():
    al, be, nu = 0.9, 1.3, 2
    spec = density.omega_spec(al, be, nu)
    members = [(1, np.diag([al, be]), (0.0, 0.0), True), (1, np.diag([1 / be, 1 / al]), (0.0, 0.0), False),
               (-1, np.diag([1 / be, nu / al]), (0.0, 0.0), False)]
    est = density.lower_density_empirical(spec, [8.0, 32.0], 16)
    probes = [((0.37, -1.21), 2.3), ((1.9, 0.4), 3.1)]
    basis = np.array([[1.1, 0.2], [-0.1, 0.9]])
    T = np.array([[1.0, 0.3], [0.0, 1.0]]) * 1.1
    tr = density.density_transform_check(density.LatticePoints(basis), T, 32.0, 8)
    lat_members = [(1, basis, (0.0, 0.0), False)]
    cell = lattice.SeparableLattice(Fraction(1), Fraction(1, 2))
    z, t = (1.0, math.sqrt(2.0)), workloads.GOLDEN
    eq = density.equidistribution_diagnostic(z, cell, t, 20000)
    return [
        ("theta_R", lambda: checks.theta_checks(members, est),
         lambda: checks.theta_checks(members, [replace(e, theta=e.theta * 1.5) for e in est])),
        ("count_in_box", lambda: checks.box_count_checks(spec, members, probes),
         lambda: checks.box_count_checks(OffByOne(spec), members, probes)),
        ("density transform", lambda: checks.transform_checks(lat_members, T, 32.0, tr),
         lambda: checks.transform_checks(lat_members, T, 32.0, (tr[0] * 1.3, tr[1]))),
        ("discrepancy", lambda: checks.equidistribution_checks(z, cell, t, 20000, eq),
         lambda: checks.equidistribution_checks(z, cell, t, 20000, (eq[0], 0.5))),
        ("covering radius", lambda: checks.equidistribution_checks(z, cell, t, 20000, eq),
         lambda: checks.equidistribution_checks(z, cell, t, 20000, (eq[0] / 10, eq[1]))),
    ]


def analysis_cases():
    op = symplectic.metaplectic_from_generators([[2, 3], [7, 11]], 15)
    s = gabor.FiniteGaborSystem(15, 5, 3, gabor.periodized_gaussian(15, math.pi))
    moved = symplectic.transport_system(op, s)
    rep = invariance.gaussian_corollary_scenario(60, 10, 10, math.pi, 2, 2)
    fewer = replace(rep.scan, invariant_set=rep.scan.invariant_set[1:])
    return [
        ("unitarity", lambda: checks.unitary_checks(op),
         lambda: checks.unitary_checks(replace(op, unitary=op.unitary * 1.01))),
        ("transported window", lambda: checks.transport_checks(op, s, moved, [[2, 3], [7, 11]]),
         lambda: checks.transport_checks(op, s, replace(moved, window=moved.window * 1j), [[2, 3], [7, 11]])),
        ("transported point set", lambda: checks.transport_checks(op, s, moved, [[2, 3], [7, 11]]),
         lambda: checks.transport_checks(op, s, moved, [[1, 0], [0, 1]])),
        ("gaussian corollary", lambda: checks.corollary_checks(rep),
         lambda: checks.corollary_checks(replace(rep, scan=fewer))),
    ]


def cli_cases():
    expected = {"order": 36, "x": 1.5, "ok": True}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **run.PIN)
    os.chdir(ROOT)
    runner = run.CliRunner(ROOT, "exact-density", env)
    want = workloads.ExactDensity(0).cli_expected(None)

    def rerun(corrupt):
        runner.first = [None] * len(runner.commands)
        runner.failures = []
        runner.run_round(want)
        if corrupt:
            name = next(iter(runner.first[0]))
            runner.first[0] = dict(runner.first[0], **{name: runner.first[0][name] + b" "})
        runner.run_round(want)
        return runner.failures

    return [
        ("CLI float field", lambda: run.fields_match(expected, dict(expected)),
         lambda: run.fields_match(expected, dict(expected, x=1.5 * (1 + 1e-6)))),
        ("CLI missing field", lambda: run.fields_match(expected, dict(expected)),
         lambda: run.fields_match(expected, {"order": 36, "ok": True})),
        ("CLI integer field", lambda: run.fields_match(expected, dict(expected)),
         lambda: run.fields_match(expected, dict(expected, order=35))),
        ("CLI byte-identical rerun", lambda: rerun(False), lambda: rerun(True)),
    ]


def main() -> int:
    missed = 0
    for group in (system_cases, exact_cases, density_cases, analysis_cases, cli_cases):
        for name, good, corrupted in group():
            clean, caught = good(), corrupted()
            ok = not clean and bool(caught)
            missed += not ok
            print(f"{'ok    ' if ok else 'MISSED'} {name}: " + (caught[0] if caught else f"not caught {clean}"))
    print(f"{missed} check(s) misbehaved" if missed else "every check rejects its corrupted output")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
