"""The three workloads: seeded inputs, one pass of operations, the checks.

Each workload builds its inputs once from the seed (its constructor), then
runs the same fixed list of operations on every pass (`run_pass`).  An
operation that raises is counted as failed and the pass goes on.  The
checks (`check`) run outside the timed region on the results of one pass.

Gabor-system inputs are seeded by a random time-frequency shift and phase
of each window.  That maps every system to a unitarily equivalent one, so
verdicts, ranks and frame bounds do not depend on the seed, while every
matrix the library factors does.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from gaborinv import density, gabor, invariance, lattice, symplectic

import checks


class Pass:
    """Runs operations, keeping the result of each one that succeeds."""

    def __init__(self):
        self.results = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, key, fn, *args):
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception as exc:  # one failed operation must not end the pass
            self.failed += 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        self.results[key] = out
        return out


# -- windows and systems ------------------------------------------------------

def window(L: int, a: int, nu: int, name: str) -> np.ndarray:
    """The CLI's builtin windows: gaussian, gaussian-sum, periodic-gaussian."""
    g0 = gabor.periodized_gaussian(L, math.pi)
    if name == "gaussian":
        return g0
    step = a // nu
    copies = nu if name == "gaussian-sum" else L // step
    w = sum(np.roll(g0, j * step) for j in range(copies))
    return w / np.linalg.norm(w)


def seeded_shift(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    L = w.shape[0]
    t, m = (int(v) for v in rng.integers(0, L, 2))
    n = np.arange(L)
    phase = np.exp(2j * np.pi * rng.random())
    return phase * np.roll(np.exp(2j * np.pi * m * n / L) * w, t)


def system_spec(L, a, b, nu, name, refinement, rng):
    w = seeded_shift(window(L, a, nu, name), rng)
    return {
        "L": L, "a": a, "b": b, "nu": nu, "window": name, "refinement": refinement,
        "sys": gabor.FiniteGaborSystem(L, a, b, w),
    }


def certify_scan(spec, scan):
    """Exact layer on a scan: the order modulo Lambda of each class of
    detected shifts, whose lcm is the verdict m, and the reduction of each
    extra class; then the density lower bound 1/(alpha beta) + (1 - 1/nu)
    alpha beta of the matching continuous lattice (alpha = a/sqrt L,
    beta = b/sqrt L)."""
    a, b, L = spec["a"], spec["b"], spec["L"]
    lam = lattice.Lattice2D(lattice.RationalMatrix2x2.diagonal(a, b))
    cosets = sorted({(t % a, f % b) for t, f in scan.invariant_set})
    orders = [lattice.order_in_lattice(z, lam, L) for z in cosets]
    m = math.lcm(*orders)
    classes = [(t * m // a, f * m // b) for t, f in cosets if (t, f) != (0, 0)]
    reductions = [lattice.reduce_invariant_shift(a, b, r, s, m) for r, s in classes]
    bound = density.omega_density_formula(a / math.sqrt(L), b / math.sqrt(L), spec["nu"])
    return {"cosets": cosets, "orders": orders, "m": m, "classes": classes, "reductions": reductions,
            "density_bound": bound}


def run_systems(p: Pass, specs):
    for i, s in enumerate(specs):
        p.run(("criteria", i), invariance.criteria_engine, s["sys"], s["nu"])
        scan = p.run(("scan", i), invariance.scan_invariance, s["sys"], s["refinement"])
        p.run(("dual", i), gabor.canonical_dual, s["sys"])
        p.run(("bounds", i), gabor.frame_bounds, s["sys"])
        p.run(("certify", i), certify_scan, s, scan)


def check_systems(specs, results) -> list[str]:
    bad = []
    for i, s in enumerate(specs):
        crit, scan, dual, fb, cert = (results.get((k, i)) for k in ("criteria", "scan", "dual", "bounds", "certify"))
        if None in (crit, scan, dual, fb, cert):
            continue  # counted as failed operations
        where = f"L={s['L']} a={s['a']} b={s['b']} nu={s['nu']} {s['window']}"
        bad += [f"{where}: {e}" for e in checks.system_checks(s, crit, scan, dual, fb, cert)]
    return bad


def system_digest(specs, results):
    out = []
    for i in range(len(specs)):
        crit, scan, fb = (results.get((k, i)) for k in ("criteria", "scan", "bounds"))
        out.append((
            crit and crit.verdict, crit and (crit.rank_sum, crit.joint_rank),
            scan and (scan.verdict, scan.verdict_m, len(scan.invariant_set)),
            fb and (fb.rank, fb.is_riesz_sequence),
        ))
    return out


DFT = [[0, -1], [1, 0]]


def seeded_sl2(L: int, rng: random.Random):
    """B = [[x, y], [c, w]] in SL(2, Z_L) with c a unit mod L."""
    while True:
        c = rng.randrange(1, L)
        if math.gcd(c, L) == 1:
            break
    x, w = rng.randrange(L), rng.randrange(L)
    y = ((x * w - 1) * pow(c, -1, L)) % L
    return [[x, y], [c, w]]


# -- large-L ------------------------------------------------------------------

class LargeL:
    """Dense factorizations at L = 480: a Riesz Gaussian and a rank-10
    periodic Gaussian, with the DFT metaplectic transport of the first."""

    name = "large-L"

    def __init__(self, seed: int, L: int = 480):
        rng = np.random.default_rng(seed)
        k = 480 // L
        self.specs = [
            system_spec(L, 48 // k, 48 // k, 2, "gaussian", 4, rng),
            system_spec(L, 40 // k, 48 // k, 2, "periodic-gaussian", 4, rng),
        ]

    def run_pass(self) -> Pass:
        p = Pass()
        run_systems(p, self.specs)
        g_sys = self.specs[0]["sys"]
        op = p.run("dft", symplectic.metaplectic_from_generators, DFT, g_sys.L)
        p.run("transport", symplectic.transport_system, op, g_sys)
        return p

    def check(self, p: Pass) -> list[str]:
        bad = check_systems(self.specs, p.results)
        op, moved = p.results.get("dft"), p.results.get("transport")
        if op is not None and moved is not None:
            bad += checks.transport_checks(op, self.specs[0]["sys"], moved, DFT)
        return bad

    def digest(self, p: Pass):
        return system_digest(self.specs, p.results)

    def cli_expected(self, p: Pass) -> list[dict]:
        """Result fields expected from run.CLI_COMMANDS[name], in order."""
        crit, fb = p.results.get(("criteria", 1)), p.results.get(("bounds", 1))
        if crit is None or fb is None:
            return [{}]
        return [{
            "verdict": crit.verdict,
            "verdict_consistent": crit.verdict_consistent,
            "holds": dict(crit.holds),
            "res_iii": {"rank_sum": crit.rank_sum, "joint_rank": crit.joint_rank},
            "frame_bounds": {"rank": fb.rank, "is_riesz_sequence": fb.is_riesz_sequence,
                             "lower": fb.lower, "upper": fb.upper},
        }]


# -- small-L-sweep ------------------------------------------------------------

SWEEP = [  # (L, nu, a, b, refinement): every scan residual is far from the gray band
    (60, 2, 10, 10, 2), (60, 3, 6, 12, 3), (120, 2, 20, 12, 4), (120, 3, 12, 15, 3),
    (144, 2, 24, 12, 4), (144, 3, 12, 18, 3), (180, 2, 18, 12, 2), (180, 3, 15, 18, 3),
]
WINDOWS = ("gaussian", "gaussian-sum", "periodic-gaussian")
ODD_L = ((121, 11, 11), (225, 15, 15))  # chirp factorizations need odd L


class SmallLSweep:
    """Many small systems (three windows each), the Gaussian corollary
    pipeline, and metaplectic covariance and transport at odd L."""

    name = "small-L-sweep"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.specs = [
            system_spec(L, a, b, nu, w, r, rng) for (L, nu, a, b, r) in SWEEP for w in WINDOWS
        ]
        prng = random.Random(seed)
        self.meta = []
        for L, a, b in ODD_L:
            B = seeded_sl2(L, prng)
            zs = [(prng.randrange(L), prng.randrange(L)) for _ in range(4)]
            sys_ = gabor.FiniteGaborSystem(L, a, b, seeded_shift(gabor.periodized_gaussian(L, math.pi), rng))
            self.meta.append((B, zs, sys_))

    def run_pass(self) -> Pass:
        p = Pass()
        run_systems(p, self.specs)
        p.run("corollary", invariance.gaussian_corollary_scenario, 120, 12, 12, math.pi, 2, 4)
        for j, (B, zs, sys_) in enumerate(self.meta):
            op = p.run(("meta", j), symplectic.metaplectic_from_generators, B, sys_.L)
            for k, z in enumerate(zs):
                p.run(("cov", j, k), symplectic.covariance_residual, op, z)
            p.run(("transport", j), symplectic.transport_system, op, sys_)
        return p

    def check(self, p: Pass) -> list[str]:
        bad = check_systems(self.specs, p.results)
        rep = p.results.get("corollary")
        if rep is not None:
            bad += checks.corollary_checks(rep)
        for j, (B, zs, sys_) in enumerate(self.meta):
            op = p.results.get(("meta", j))
            if op is None:
                continue
            bad += checks.unitary_checks(op)
            for k in range(len(zs)):
                res = p.results.get(("cov", j, k))
                if res is not None and not res < 1e-10:
                    bad.append(f"covariance_residual {res:.3e} >= 1e-10 at L={sys_.L}, z={zs[k]}")
            moved = p.results.get(("transport", j))
            if moved is not None:
                bad += checks.transport_checks(op, sys_, moved, B)
        return bad

    def digest(self, p: Pass):
        rep = p.results.get("corollary")
        return system_digest(self.specs, p.results), rep and rep.matches_expectations()

    def cli_expected(self, p: Pass) -> list[dict]:
        """Result fields expected from run.CLI_COMMANDS[name], in order."""
        rep = p.results.get("corollary")
        if rep is None:
            return [{}]
        d = rep.to_json_dict()
        return [{
            "matches_expectations": True,
            "criteria": {"verdict": d["criteria"]["verdict"], "holds": d["criteria"]["holds"]},
            "scan": {"verdict": d["scan"]["verdict"], "verdict_m": d["scan"]["verdict_m"],
                     "invariant_set": d["scan"]["invariant_set"]},
            "frame_bounds": d["frame_bounds"],
            "condition_number": d["condition_number"],
            "biorthogonality_residual": d["biorthogonality_residual"],
        }]


# -- exact-density ------------------------------------------------------------

N_REDUCE, N_SEPARATE, N_ORDER, N_SEP_LATTICES = 4000, 1500, 8000, 1500
DENSITY_R = [4.0, 8.0, 16.0, 32.0]
PROBE_GRID = 16
N_ORBIT = 20000
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rand_fraction(rng: random.Random, num=(1, 40), den=(1, 40)) -> Fraction:
    return Fraction(rng.randint(*num), rng.randint(*den))


def rand_basis(rng: random.Random):
    while True:
        rows = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0:
            return rows


class ExactDensity:
    """Exact rational lattice algebra and box-count density estimation, no
    dense linear algebra; one small finite system and one odd-L metaplectic
    operator confirm a reduction and the covariance in the finite model."""

    name = "exact-density"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.reduce_args = []
        for _ in range(N_REDUCE):
            m = rng.randint(2, 40)
            r, s = 0, 0
            while r == 0 and s == 0:
                r, s = rng.randrange(m), rng.randrange(m)
            self.reduce_args.append((rand_fraction(rng), rand_fraction(rng), r, s, m))
        self.bases = [rand_basis(rng) for _ in range(N_SEPARATE)]
        self.lattices = [lattice.Lattice2D(lattice.RationalMatrix2x2(rows)) for rows in self.bases]
        unit = ([[1, 0], [0, 1]], lattice.Lattice2D(lattice.RationalMatrix2x2.identity()))
        self.order_args = []  # (z, basis rows, lattice), z = basis w for w with denominators <= 20
        for i in range(N_ORDER):
            rows, lat = unit if i % 2 == 0 else (self.bases[i % N_SEPARATE], self.lattices[i % N_SEPARATE])
            w = [Fraction(rng.randrange(q), q) for q in (rng.randint(1, 20), rng.randint(1, 20))]
            z = (rows[0][0] * w[0] + rows[0][1] * w[1], rows[1][0] * w[0] + rows[1][1] * w[1])
            self.order_args.append((z, rows, lat))
        self.seps = [lattice.SeparableLattice(rand_fraction(rng), rand_fraction(rng)) for _ in range(N_SEP_LATTICES)]
        self.cosets = [rng.randint(1, 12) for _ in range(N_SEP_LATTICES)]

        al, be, nu = rng.uniform(0.6, 1.6), rng.uniform(0.6, 1.6), rng.choice((2, 3))
        basis = np.array([[rng.uniform(0.8, 1.4), rng.uniform(-0.4, 0.4)], [rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.4)]])
        shift = (rng.random(), rng.random())
        origin = (0.0, 0.0)
        self.point_sets = {  # name: (spec, the same set as signed lattices)
            "omega": (density.omega_spec(al, be, nu), [
                (1, np.diag([al, be]), origin, True),
                (1, np.diag([1 / be, 1 / al]), origin, False),
                (-1, np.diag([1 / be, nu / al]), origin, False),
            ]),
            "shifted": (density.ShiftedLattice(basis, shift), [(1, basis, shift, False)]),
            "punctured": (density.PuncturedLattice(np.diag([al, be])), [(1, np.diag([al, be]), origin, True)]),
        }
        self.transform = (density.LatticePoints(basis), np.array([[1.0, rng.uniform(-0.5, 0.5)], [0.0, 1.0]]) * rng.uniform(0.8, 1.25))
        self.transform_members = [(1, basis, origin, False)]
        self.equi = ((1.0, rng.choice((math.sqrt(2.0), math.sqrt(3.0), math.pi))), lattice.SeparableLattice(Fraction(1), Fraction(rng.randint(1, 3), 2)))
        self.box_probes = [((rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(1.5, 3.5)) for _ in range(8)]

        nrng = np.random.default_rng(seed)
        self.bridge = system_spec(60, 15, 12, 3, "periodic-gaussian", 3, nrng)
        self.bridge_B = seeded_sl2(15, rng)
        self.bridge_z = (rng.randrange(15), rng.randrange(15))

    def run_pass(self) -> Pass:
        p = Pass()
        for i, args in enumerate(self.reduce_args):
            p.run(("reduce", i), lattice.reduce_invariant_shift, *args)
        for i, lat in enumerate(self.lattices):
            p.run(("separate", i), lattice.separate, lat)
        for i, (z, _, lat) in enumerate(self.order_args):
            p.run(("order", i), lattice.order_in_lattice, z, lat, 10**6)
        for i, (sep, q) in enumerate(zip(self.seps, self.cosets)):
            p.run(("adjoint", i), lattice.adjoint_lattice, sep)
            p.run(("coset", i), lattice.coset_decomposition, sep, q)
        for name, (spec, _) in self.point_sets.items():
            p.run(("theta", name), density.lower_density_empirical, spec, DENSITY_R, PROBE_GRID)
        spec, B = self.transform
        p.run("transform", density.density_transform_check, spec, B, DENSITY_R[-1], 8)
        z, cell = self.equi
        p.run("equidistribution", density.equidistribution_diagnostic, z, cell, GOLDEN, N_ORBIT)
        b = self.bridge
        p.run("bridge_scan", invariance.scan_invariance, b["sys"], b["refinement"])
        p.run("bridge_reduce", lattice.reduce_invariant_shift, b["a"], b["b"], 1, 0, b["nu"])
        op = p.run("bridge_meta", symplectic.metaplectic_from_generators, self.bridge_B, 15)
        p.run("bridge_cov", symplectic.covariance_residual, op, self.bridge_z)
        return p

    def check(self, p: Pass) -> list[str]:
        R = p.results
        bad = []
        for i, args in enumerate(self.reduce_args):
            if ("reduce", i) in R:
                bad += checks.reduction_checks(R[("reduce", i)], *args)
        for i, rows in enumerate(self.bases):
            if ("separate", i) in R:
                bad += checks.separation_checks(R[("separate", i)], rows)
        bad += checks.order_checks([(z, rows, R[("order", i)]) for i, (z, rows, _) in enumerate(self.order_args) if ("order", i) in R])
        for i, (sep, q) in enumerate(zip(self.seps, self.cosets)):
            bad += checks.adjoint_coset_checks(sep, q, R.get(("adjoint", i)), R.get(("coset", i)))
        for name, (spec, members) in self.point_sets.items():
            if ("theta", name) in R:
                bad += [f"{name}: {e}" for e in checks.theta_checks(members, R[("theta", name)])]
            bad += [f"{name}: {e}" for e in checks.box_count_checks(spec, members, self.box_probes)]
        if "transform" in R:
            _, B = self.transform
            bad += checks.transform_checks(self.transform_members, B, DENSITY_R[-1], R["transform"])
        if "equidistribution" in R:
            z, cell = self.equi
            bad += checks.equidistribution_checks(z, cell, GOLDEN, N_ORBIT, R["equidistribution"])
        b, scan, red = self.bridge, R.get("bridge_scan"), R.get("bridge_reduce")
        if scan is not None and red is not None:
            if scan.verdict_m != b["nu"] or red.m != b["nu"] or red.reduced_shift() != (Fraction(b["a"], b["nu"]), 0):
                bad.append(f"bridge: scan m={scan.verdict_m}, reduction m={red.m}, expected {b['nu']}")
        if "bridge_meta" in R:
            bad += checks.unitary_checks(R["bridge_meta"])
        cov = R.get("bridge_cov")
        if cov is not None and not cov < 1e-10:
            bad.append(f"bridge covariance_residual {cov:.3e} >= 1e-10")
        return bad

    def digest(self, p: Pass):
        R = p.results
        return (
            [R.get(("order", i)) for i in range(N_ORDER)],
            [(r.d, r.m, r.case) if r else None for r in (R.get(("reduce", i)) for i in range(N_REDUCE))],
            [e.theta for e in R.get(("theta", "omega"), [])],
        )

    def cli_expected(self, p: Pass) -> list[dict]:
        """Result fields expected from run.CLI_COMMANDS[name], in order."""
        red = lattice.reduce_invariant_shift(Fraction(3, 2), Fraction(5, 7), 4, 6, 9).to_json_dict()
        basis = lattice.Lattice2D(lattice.RationalMatrix2x2([["1/2", "1/3"], ["0", "5/4"]]))
        order = lattice.order_in_lattice((Fraction(5, 12), Fraction(7, 18)), basis, 10**6)
        C, sep = lattice.separate(lattice.Lattice2D(lattice.RationalMatrix2x2([["3/2", "1/3"], ["2/5", "7/4"]])))
        return [
            red,
            {"order": order, "n_max": 10**6},
            {"C": [[lattice.rational_str(v) for v in row] for row in C.entries],
             "det_C": lattice.rational_str(C.det()),
             "alpha": lattice.rational_str(sep.alpha), "beta": lattice.rational_str(sep.beta)},
        ]


WORKLOADS = {w.name: w for w in (LargeL, SmallLSweep, ExactDensity)}
