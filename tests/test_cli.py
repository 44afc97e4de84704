"""CLI contract: flags, artifacts, exit codes, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaborinv
from gaborinv import cli
from gaborinv.cli import _builtin_window, main
from gaborinv.gabor import periodized_gaussian, tf_shift


def run(tmp_path, *args):
    argv = list(args) + ["--output-dir", str(tmp_path)]
    return main(argv)


class TestReduce:
    def test_reduce_success(self, tmp_path, capsys):
        code = run(tmp_path, "reduce", "--a", "1", "--b", "1", "--r", "2", "--s", "3", "--m", "5")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["det_B"] == "1"
        assert (tmp_path / "run_manifest.json").exists()
        assert (tmp_path / "reduce_result.json").exists()

    def test_invalid_order_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, "reduce", "--a", "1", "--b", "1", "--r", "1", "--s", "0", "--m", "1")
        assert code == 2
        assert "InvalidOrder" in capsys.readouterr().err

    def test_zero_shift_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, "reduce", "--a", "1", "--b", "1", "--r", "0", "--s", "0", "--m", "5")
        assert code == 2
        assert "NotAnExtraShift" in capsys.readouterr().err

    def test_parse_error_exit_1(self, tmp_path):
        code = run(tmp_path, "reduce", "--a", "x/y", "--b", "1", "--r", "1", "--s", "0", "--m", "4")
        assert code == 1


class TestSeparate:
    def test_shear_basis(self, tmp_path, capsys):
        code = run(tmp_path, "separate", "--basis", "1,1;0,1")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == "1"
        assert payload["beta"] == "1"

    def test_singular_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, "separate", "--basis", "1,1;2,2")
        assert code == 2
        assert "InvalidLattice" in capsys.readouterr().err

    def test_malformed_basis_is_parse_error(self, tmp_path, capsys):
        code = run(tmp_path, "separate", "--basis", "1,1;1")
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --basis: not a 2x2 rational basis: '1,1;1'" in err
        assert "Traceback" not in err and not (tmp_path / "run_manifest.json").exists()


class TestOrder:
    def test_found(self, tmp_path, capsys):
        code = run(tmp_path, "order", "--zx", "1/2", "--zy", "1/3")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["order"] == 6

    def test_absent_exit_3(self, tmp_path, capsys):
        code = run(tmp_path, "order", "--zx", "1/7", "--zy", "0", "--n-max", "5")
        assert code == 3
        assert json.loads(capsys.readouterr().out)["order"] is None

    def test_malformed_basis_is_parse_error(self, tmp_path, capsys):
        code = run(tmp_path, "order", "--zx", "1/2", "--zy", "1/3", "--basis", "1,x;0,1")
        assert code == 1
        err = capsys.readouterr().err
        assert "argument --basis: not a 2x2 rational basis: '1,x;0,1'" in err
        assert "Traceback" not in err and not (tmp_path / "run_manifest.json").exists()

    def test_basis_echoed_in_manifest(self, tmp_path, capsys):
        code = run(tmp_path, "order", "--zx", "5/12", "--zy", "7/18", "--basis", "1/2,1/3;0,5/4")
        assert code == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["basis"] == "1/2,1/3;0,5/4"


class TestCriteria:
    def test_positive_case(self, tmp_path, capsys):
        code = run(
            tmp_path, "criteria", "--L", "144", "--a", "12", "--b", "8",
            "--nu", "2", "--window", "gaussian-sum",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "all_hold"
        assert (tmp_path / "orthogonality_table.csv").exists()

    def test_negative_case(self, tmp_path, capsys):
        code = run(
            tmp_path, "criteria", "--L", "120", "--a", "12", "--b", "12",
            "--nu", "2", "--window", "gaussian",
        )
        assert code == 0  # verdict_consistent even though all fail
        assert json.loads(capsys.readouterr().out)["verdict"] == "all_fail"

    @pytest.mark.parametrize("system", [("120", "12", "12"), ("144", "12", "8")])
    @pytest.mark.parametrize("nu", [2, 3])
    def test_direct_sum_margin(self, tmp_path, capsys, system, nu):
        # sigma_min for every nu; the nu = 2 angle is 2 arcsin(sigma_min / sqrt 2), and
        # for nu > 2 there is none
        args = ["criteria", "--L", system[0], "--a", system[1], "--b", system[2], "--nu", str(nu)]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--output-dir", str(d1)]) == 0
        assert main(args + ["--output-dir", str(d2)]) == 0
        capsys.readouterr()
        raw = (d1 / "criteria_result.json").read_bytes()
        assert raw == (d2 / "criteria_result.json").read_bytes()
        res = json.loads(raw)["res_iii"]
        assert 0 <= res["sigma_min"] <= 1 + 1e-12
        if nu == 2:
            angle = 2 * math.asin(res["sigma_min"] / math.sqrt(2))
            assert res["min_principal_gap"] == pytest.approx(angle, abs=1e-12, rel=0)
        else:
            assert res["min_principal_gap"] is None
            assert b'"min_principal_gap": null' in raw

    @pytest.mark.parametrize("window", ["gaussian", "gaussian-sum", "periodic-gaussian"])
    def test_nu_not_dividing_exit_2(self, tmp_path, capsys, window):
        # the builtin sums shift by a/nu; the plain Gaussian reaches the criteria's check
        code = run(
            tmp_path, "criteria", "--L", "120", "--a", "12", "--b", "12",
            "--nu", "5", "--window", window,
        )
        assert code == 2
        assert "InvalidNu" in capsys.readouterr().err

    def test_zero_window_file_exit_2(self, tmp_path, capsys):
        sig = tmp_path / "zero.csv"
        sig.write_text(
            "index,real,imag\n" + "\n".join(f"{i},0.0,0.0" for i in range(16)) + "\n"
        )
        code = run(
            tmp_path, "criteria", "--L", "16", "--a", "4", "--b", "4",
            "--nu", "2", "--window", f"@{sig}",
        )
        assert code == 2  # a precondition, as for scan and dual-window
        assert capsys.readouterr().err == "ZeroWindow: frame operator is zero\n"


    @pytest.mark.parametrize(
        "window, message",
        [
            ("bogus", "unknown window 'bogus'"),
            ("@{}/missing.csv", "No such file or directory"),
            ("@{}/one_column.csv", "row 2 needs index, real, imag"),
            ("@{}/dup.csv", "the indices must be 0..7, each once"),
        ],
    )
    def test_bad_window_is_parse_error(self, tmp_path, capsys, window, message):
        (tmp_path / "one_column.csv").write_text("index\n0\n1\n")
        # index 0 twice and index 3 missing: eight rows, but not a length-8 window
        rows = "".join(f"{i},1.0,0.0\n" for i in (0, 0, 1, 2, 4, 5, 6, 7))
        (tmp_path / "dup.csv").write_text("index,real,imag\n" + rows)
        code = run(
            tmp_path, "criteria", "--L", "16", "--a", "4", "--b", "4",
            "--nu", "2", "--window", window.format(tmp_path),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert "Traceback" not in err


class TestScanDensityGaussianEquid:
    def test_scan_negative_case(self, tmp_path, capsys):
        code = run(
            tmp_path, "scan", "--L", "120", "--a", "12", "--b", "12",
            "--window", "gaussian", "--refinement", "4",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "subset_of_refined_lattice"
        assert payload["verdict_m"] == 1

    def test_density_omega_csvs(self, tmp_path, capsys):
        code = run(
            tmp_path, "density", "--set", "omega", "--alpha", "3/2", "--beta", "5/7",
            "--nu", "2", "--R", "20,40", "--probe-grid", "4",
        )
        assert code == 0
        text = (tmp_path / "density_lattice_part.csv").read_text()
        assert text.splitlines()[0] == "R,theta,analytic,gap"
        assert (tmp_path / "density_product_part.csv").exists()
        assert (tmp_path / "density_union.csv").exists()

    @pytest.mark.parametrize("nu", ["4", "0"])
    def test_scan_builtin_window_nu_not_dividing_exit_2(self, tmp_path, capsys, nu):
        # nu = 0 divided a by zero while the window was built
        code = run(
            tmp_path, "scan", "--L", "120", "--a", "6", "--b", "12",
            "--nu", nu, "--window", "gaussian-sum", "--refinement", "2",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("InvalidNu:")

    @pytest.mark.parametrize(
        "args",
        [
            ["--set", "omega", "--alpha", "3/2", "--beta", "5/7", "--nu", "2"],
            ["--set", "lattice", "--alpha", "1.3", "--beta", "pi"],
        ],
        ids=["omega", "lattice"],
    )
    def test_density_csv_cells_are_plain_floats(self, tmp_path, capsys, args):
        # numpy 2 scalars printed as np.float64(...) in the analytic and gap cells
        assert run(tmp_path, "density", *args, "--R", "20,40", "--probe-grid", "4") == 0
        files = sorted(tmp_path.glob("density_*.csv"))
        assert files
        for path in files:
            for row in path.read_text().splitlines()[1:]:
                for cell in row.split(","):
                    if cell != "None":
                        float(cell)  # ValueError on "np.float64(0.93...)"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--R", "inf"], "R must lie in (0, inf)"),
            (["--R", "nan"], "R must lie in (0, inf)"),
            (["--R", "5", "--alpha", "0"], "InvalidMatrix: lattice basis is singular"),
            (["--R", "5", "--set", "lattice", "--alpha", "inf"], "InvalidMatrix: lattice basis entries must be finite"),
            (["--R", "20", "--probe-grid", "0"], "InvalidParameter: probe_grid must be >= 1"),
            # an OverflowError traceback, exit 1, at int(best) / (2R)^2
            (["--R", "1e300"], "InvalidParameter: R = 1e+300: the window's area or count overflows"),
            # a ZeroDivisionError traceback, exit 1, at the same line
            (["--R", "1e-300"], "InvalidParameter: R = 1e-300: the window's area underflows"),
            # exit 0 and "theta": Infinity, which is not JSON
            (["--set", "lattice", "--R", "1e-160", "--probe-grid", "1"],
             "InvalidParameter: R = 1e-160: the window's area underflows"),
        ],
        ids=["R-inf", "R-nan", "alpha-0", "lattice-alpha-inf", "probe-grid-0", "R-1e300",
             "R-1e-300", "lattice-R-1e-160"],
    )
    def test_density_precondition_exit_2(self, tmp_path, capsys, args, message):
        assert run(tmp_path, "density", *args) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "run_manifest.json").exists()

    def test_gaussian_pipeline(self, tmp_path, capsys):
        code = run(
            tmp_path, "gaussian", "--L", "60", "--a", "10", "--b", "10",
            "--refinement", "2",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches_expectations"] is True

    def test_gaussian_precondition_exit_2(self, tmp_path, capsys):
        code = run(
            tmp_path, "gaussian", "--L", "60", "--a", "6", "--b", "10",
            "--refinement", "2",
        )
        assert code == 2
        assert "NotUndersampled" in capsys.readouterr().err

    def test_equidistribution_sqrt2(self, tmp_path, capsys):
        code = run(tmp_path, "equidistribution", "--z", "1,sqrt2", "--n", "10000")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["covering_radius"] < 0.05

    @pytest.mark.parametrize(
        "exc", [MemoryError("cannot allocate"), ValueError("stray")], ids=["memory", "value"]
    )
    def test_unexpected_error_is_named_exit_2(self, tmp_path, capsys, monkeypatch, exc):
        # a MemoryError (equidistribution --n 100000000000) ended in a traceback, and any
        # ValueError was printed as InvalidParameter
        def fail(args, outdir):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "equidistribution", fail)
        assert run(tmp_path, "equidistribution", "--z", "1,sqrt2") == 2
        assert capsys.readouterr().err == f"{type(exc).__name__}: {exc}\n"
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["scan", "--refinement", "2", "--c", "inf"],
            ["gaussian", "--refinement", "2", "--c", "nan"],
            ["scan", "--refinement", "2", "--tol", "nan"],
            ["criteria", "--nu", "2", "--tol", "-1"],
            ["criteria", "--nu", "2", "--rank-tol", "1"],
            ["scan", "--refinement", "2", "--rank-tol", "2"],
            ["dual-window", "--rank-tol", "inf"],
            ["dual-window", "--rank-tol", "nan"],
        ],
    )
    def test_out_of_range_parameter_exit_2(self, tmp_path, capsys, args):
        code = run(tmp_path, args[0], "--L", "12", "--a", "4", "--b", "4", *args[1:])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("InvalidParameter:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [["--t-step", "nan"], ["--t-step", "inf"], ["--t-step", "1e308"], ["--z", "nan,1"]],
        ids=["t-step-nan", "t-step-inf", "t-step-1e308", "z-nan"],
    )
    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_equidistribution_non_finite_samples_exit_2(self, tmp_path, capsys, args):
        # non-finite samples are rejected before any distance is taken, without numpy warnings
        assert run(tmp_path, "equidistribution", "--z", "1,1", "--n", "100", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("InvalidParameter: every sample j*t_step*z must be finite")
        assert "Traceback" not in err

    def test_tiny_gaussian_width_returns_promptly(self, tmp_path):
        # the periodization series needs ~c^(-1/2) terms: --c 1e-300 never returned
        argv = ["scan", "--L", "120", "--a", "12", "--b", "12", "--refinement", "4",
                "--c", "1e-300", "--output-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "gaborinv.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert proc.returncode in (0, 3)
        assert "Traceback" not in proc.stderr

    def test_dual_window_writes_signal(self, tmp_path, capsys):
        code = run(
            tmp_path, "dual-window", "--L", "60", "--a", "10", "--b", "10",
            "--window", "gaussian",
        )
        assert code == 0
        assert (tmp_path / "dual_window.csv").exists()


REDUCE_ARGS = ["reduce", "--a", "2", "--b", "3", "--r", "4", "--s", "6", "--m", "9"]


def _console_script_target():
    """The ``module:attr`` that ``pyproject.toml`` declares for the ``gaborinv`` script."""
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["gaborinv"]


def _child_env() -> dict:
    """The environment of a child process that imports the same gaborinv package as this suite."""
    src_dir = Path(gaborinv.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    return env


def _check_reduce_run(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["d"] == 2


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared entry point, started as the installed wrapper starts it."""
        module, _, attr = _console_script_target().partition(":")
        proc = subprocess.run(
            [
                sys.executable, "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())",
                *REDUCE_ARGS, "--output-dir", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=_child_env(),
        )
        _check_reduce_run(proc)

    @pytest.mark.skipif(shutil.which("gaborinv") is None, reason="console script not installed")
    def test_installed_wrapper(self, tmp_path):
        proc = subprocess.run(
            ["gaborinv", *REDUCE_ARGS, "--output-dir", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        _check_reduce_run(proc)


class TestDeterminism:
    @pytest.mark.parametrize(
        "args, files",
        [
            (
                ["criteria", "--L", "120", "--a", "12", "--b", "12", "--nu", "2", "--window", "gaussian"],
                ("criteria_result.json", "orthogonality_table.csv"),
            ),
            (
                ["scan", "--L", "120", "--a", "12", "--b", "12", "--window", "gaussian", "--refinement", "4"],
                ("scan_result.json",),
            ),
            (
                ["gaussian", "--L", "120", "--a", "12", "--b", "12", "--refinement", "4"],
                ("gaussian_result.json", "orthogonality_table.csv"),
            ),
        ],
        ids=["criteria", "scan", "gaussian"],
    )
    def test_rerun_byte_identical(self, tmp_path, capsys, args, files):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--output-dir", str(d1)]) == 0
        assert main(args + ["--output-dir", str(d2)]) == 0
        capsys.readouterr()
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        m1 = json.loads((d1 / "run_manifest.json").read_text())
        m2 = json.loads((d2 / "run_manifest.json").read_text())
        assert m1["config"] == m2["config"] or m1["config"]["output_dir"] != m2["config"]["output_dir"]


@pytest.mark.parametrize(
    "args, code, message",
    [
        (
            ["criteria", "--L", "120", "--a", "12", "--b", "12", "--nu", "2", "--tol", "abc"],
            1,
            "error: argument --tol: not a real number: 'abc'",
        ),
        (["equidistribution", "--z", "1,2,3"], 1, "error: argument --z: expected 'x,y', got '1,2,3'"),
        (
            ["reduce", "--a", "1", "--b", "1", "--r", "7", "--s", "0", "--m", "5"],
            2,
            "InvalidParameter: need 0 <= r, s < m, got r=7, s=0, m=5",
        ),
        (["order", "--zx", "1/2", "--zy", "1/3", "--n-max", "0"], 2, "InvalidParameter: n_max must be >= 1"),
        (["equidistribution", "--z", "1,sqrt2", "--n", "0"], 2, "InvalidParameter: n_samples must be >= 1"),
        # both flags were only echoed into the manifest
        (["separate", "--basis", "1,0;0,1", "--seed", "3"], 1, "error: unrecognized arguments: --seed 3"),
        (["density", "--R", "20", "--format", "csv"], 1, "error: unrecognized arguments: --format csv"),
    ],
    ids=[
        "criteria-tol", "equidistribution-z", "reduce-r", "order-n-max", "equidistribution-n",
        "separate-seed", "density-format",
    ],
)
def test_rejected_input_writes_no_manifest(tmp_path, capsys, args, code, message):
    assert run(tmp_path, *args) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "run_manifest.json").exists()


HUGE = "1" + "0" * 400 + "/1"  # a p/q beyond the float range


@pytest.mark.parametrize("value", ["1/0", HUGE], ids=["zero-q", "overflow"])
@pytest.mark.parametrize(
    "command, flag",
    [
        (["criteria", "--L", "12", "--a", "4", "--b", "4", "--nu", "2"], "--c"),
        (["criteria", "--L", "12", "--a", "4", "--b", "4", "--nu", "2"], "--tol"),
        (["criteria", "--L", "12", "--a", "4", "--b", "4", "--nu", "2"], "--rank-tol"),
        (["density"], "--R"),
        (["density", "--R", "5"], "--alpha"),
        (["density", "--R", "5"], "--beta"),
        (["equidistribution"], "--z"),
        (["equidistribution", "--z", "1,sqrt2"], "--t-step"),
    ],
    ids=["c", "tol", "rank-tol", "R", "alpha", "beta", "z", "t-step"],
)
def test_real_outside_the_floats_is_a_parse_error(tmp_path, capsys, command, flag, value):
    """1/0 raised ZeroDivisionError and a huge p/q OverflowError out of argparse:
    a traceback with exit 1 instead of the parse error."""
    text = f"{value},1" if flag == "--z" else value
    assert run(tmp_path, *command, flag, text) == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}: not a real number: {value!r}" in err
    assert "Traceback" not in err and not (tmp_path / "run_manifest.json").exists()


@pytest.mark.parametrize(
    "command", [["criteria", "--nu", "2"], ["scan", "--refinement", "2"], ["dual-window"]]
)
@pytest.mark.parametrize(
    "entries, message",
    [
        ([0.1] * 3 + [math.nan] + [0.1] * 8, "window entries must be finite"),
        # an IndexError traceback before lambda_max was checked
        ([1e200] + [2e199] * 11, "frame operator overflows: lambda_max is not finite"),
        # a nonzero window that was reported as ZeroWindow
        ([1e-200] + [2e-201] * 11, "frame operator underflows: lambda_max is 0"),
    ],
    ids=["nan", "overflow", "underflow"],
)
def test_unusable_window_file_exit_2(tmp_path, capsys, command, entries, message):
    rows = "".join(f"{i},{v!r},0.0\n" for i, v in enumerate(entries))
    (tmp_path / "w.csv").write_text("index,real,imag\n" + rows)
    code = run(
        tmp_path, command[0], "--L", "12", "--a", "4", "--b", "4", *command[1:],
        "--window", f"@{tmp_path / 'w.csv'}",
    )
    assert code == 2
    assert capsys.readouterr().err == f"InvalidParameter: {message}\n"


@pytest.mark.parametrize("a", ["0", "-12"])
def test_summed_window_reads_the_steps_first(tmp_path, capsys, a):
    # a = 0 divided by zero building the window, a = -12 warned on 0/0
    code = run(
        tmp_path, "scan", "--L", "120", "--a", a, "--b", "12",
        "--window", "periodic-gaussian", "--refinement", "1",
    )
    assert code == 2
    assert capsys.readouterr().err == f"InvalidLattice: steps must divide L: L=120, a={a}, b=12\n"


@pytest.mark.parametrize("c", [math.pi, 0.05])
@pytest.mark.parametrize("L, a, nu", [(480, 40, 2), (48, 12, 4), (144, 12, 3)])
@pytest.mark.parametrize("name", ["gaussian", "gaussian-sum", "periodic-gaussian"])
def test_builtin_window_is_the_loop_sum_bit_for_bit(name, L, a, nu, c):
    """The one gather sums the copies in the order and with the rounding of a tf_shift loop."""
    g0 = periodized_gaussian(L, c)
    step = a // nu
    if name == "gaussian":
        expected = g0
    else:
        copies = nu if name == "gaussian-sum" else L // step  # 24 at (480, 40, 2)
        w = sum(tf_shift(g0, j * step, 0) for j in range(copies))
        expected = w / np.linalg.norm(w)
    assert np.array_equal(_builtin_window(name, L, a, a, nu, c), expected)


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    """reduce, order and separate run on the exact layer alone."""
    script = f"""
import sys
from gaborinv.cli import main

def numeric():
    names = ("numpy", "gaborinv.gabor", "gaborinv.invariance", "gaborinv.density", "gaborinv.symplectic")
    return [n for n in names if n in sys.modules]

after_import = numeric()
out = ["--output-dir", {str(tmp_path)!r}]
codes = [
    main([*{REDUCE_ARGS!r}, *out]),
    main(["order", "--zx", "1/2", "--zy", "1/3", "--basis", "1,1/2;0,2", *out]),
    main(["separate", "--basis", "1,1/2;0,2", *out]),
]
print(after_import, codes, numeric())
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.stdout.splitlines()[-1] == "[] [0, 0, 0] []", proc.stderr


def test_package_names_resolve_to_their_submodules():
    listed = dir(gaborinv)
    for name in gaborinv.__all__:
        obj = getattr(gaborinv, name)
        assert name in listed
        if name != "__version__":
            assert getattr(sys.modules[obj.__module__], obj.__name__) is obj, name
    with pytest.raises(AttributeError):
        gaborinv.no_such_name


def test_tolerance_flag_defaults_are_the_library_defaults():
    from gaborinv import gabor, invariance
    from gaborinv.cli import build_parser

    system = ["--L", "12", "--a", "4", "--b", "4"]
    for argv in (
        ["criteria", *system, "--nu", "2"],
        ["scan", *system, "--refinement", "2"],
        ["gaussian", *system, "--refinement", "2"],
        ["dual-window", *system],
    ):
        args = build_parser().parse_args(argv)
        assert args.tol == invariance.DEFAULT_TOL
        assert args.rank_tol == gabor.DEFAULT_RANK_TOL


def test_cli_import_leaves_scipy_spatial_unloaded(tmp_path):
    """No command needs scipy: a cold equidistribution run, the package's one
    nearest-sample search, leaves every scipy module unloaded."""
    script = f"""
import sys
from gaborinv.cli import main

code = main(["equidistribution", "--z", "1,sqrt2", "--n", "1000", "--output-dir", {str(tmp_path)!r}])
print(code, [name for name in sys.modules if name.split(".")[0] == "scipy"])
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr
