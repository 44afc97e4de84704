"""Benchmark for gaborinv verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gaborinv checkout.  Each workload runs in one
closed-loop worker process (perfbench/worker.py) with the BLAS pinned to
one thread.  A run is whole rounds, repeated until S seconds have passed
(at least MIN_ROUNDS): warm passes over the workload's operations until
they add up to ROUND_PASS_SECONDS (one pass, unless passes are short), then
the workload's CLI commands as cold processes, then one fresh worker start
that stops once its inputs are built.

--trace 0 prints the end-to-end metrics: setup_s (median fresh start until
ready), pass_s (median warm pass), cli_cold_s (median cold CLI command)
and peak_rss_mib (the worker's peak resident memory).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics, plus a line with the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI_COMMANDS = {  # per workload; flags fixed, so reruns must be byte-identical
    "large-L": [["criteria", "--L", "480", "--a", "40", "--b", "48", "--nu", "2", "--window", "periodic-gaussian"]],
    "small-L-sweep": [["gaussian", "--L", "120", "--a", "12", "--b", "12", "--refinement", "4"]],
    "exact-density": [
        ["reduce", "--a", "3/2", "--b", "5/7", "--r", "4", "--s", "6", "--m", "9"],
        ["order", "--zx", "5/12", "--zy", "7/18", "--basis", "1/2,1/3;0,5/4"],
        ["separate", "--basis", "3/2,1/3;2/5,7/4"],
    ],
}
MIN_ROUNDS = 3
ROUND_PASS_SECONDS = 2.0  # short passes repeat within a round, so each run has enough pass samples
MIN_SETUP_STARTS = 7
IMPORT_STARTS = 3
OUT_DIR = Path(".perfbench_out")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROCESS_TIMEOUT = 170.0


def fields_match(expected, got, path="") -> list[str]:
    """Every expected field is in `got`; floats agree to 1e-9 relative."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        bad = []
        for k, v in expected.items():
            bad += fields_match(v, got[k], f"{path}.{k}") if k in got else [f"{path}.{k}: missing"]
        return bad
    if isinstance(expected, float):
        ok = isinstance(got, (int, float)) and abs(got - expected) <= 1e-9 * abs(expected) + 1e-15
    else:
        ok = expected == got
    return [] if ok else [f"{path}: {got!r} != {expected!r}"]


class Worker:
    """A worker process; `started` and `ready_s` time its start."""

    def __init__(self, workload, seed, mode, env):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.read()
        self.ready_s = time.perf_counter() - self.started

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            f.close()


def setup_start(workload, seed, env) -> float:
    w = Worker(workload, seed, "setup", env)
    try:
        if w.proc.wait(timeout=PROCESS_TIMEOUT) != 0:
            raise RuntimeError("setup-only worker failed")
        return w.ready_s
    finally:
        w.close()


class CliRunner:
    """Cold runs of the pyproject entry point, with output checks."""

    def __init__(self, root: Path, workload: str, env):
        target = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["gaborinv"]
        module, attr = target.split(":")
        self.launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        self.commands = CLI_COMMANDS[workload]
        self.dirs = [OUT_DIR / f"cli-{workload}-{i}" for i in range(len(self.commands))]
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        self.env = env
        self.first = [None] * len(self.commands)
        self.times, self.errors, self.failures, self.attempted, self.failed = [], [], [], 0, 0

    def run_round(self, expected) -> int:
        """Run every command once; return the bytes of the files it wrote."""
        written = 0
        for i, (cmd, d) in enumerate(zip(self.commands, self.dirs)):
            self.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", self.launcher, *cmd, "--output-dir", str(d)],
                env=self.env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT,
            )
            self.times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                self.failed += 1
                self.errors.append(f"gaborinv {cmd[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
            written += sum(len(b) for b in files.values())
            if self.first[i] is None:
                self.first[i] = files
                result = json.loads(files[f"{cmd[0]}_result.json"])
                self.failures += [f"gaborinv {cmd[0]}{e}" for e in fields_match(expected[i], result)]
            elif files != self.first[i]:
                self.failures.append(f"gaborinv {cmd[0]}: a rerun with the same flags wrote different bytes")
        return written


def import_sample(env) -> tuple[float, int]:
    code = "import sys, time; t = time.perf_counter(); import gaborinv.cli; print(time.perf_counter() - t, len(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT, check=True)
    t, n = out.stdout.split()
    return float(t), int(n)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=CLI_COMMANDS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gaborinv" / "__init__.py").is_file() or not (root / "pyproject.toml").is_file():
        print("run from the root of a gaborinv checkout (src/gaborinv and pyproject.toml not found)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PIN)
    OUT_DIR.mkdir(exist_ok=True)
    cli = CliRunner(root, args.workload, env)
    traced = bool(args.trace)

    setup_times, passes, tpasses, layers, imports, bytes_written = [], [], [], [], [], None
    errors, failures, attempted, failed = [], [], 0, 0
    worker = Worker(args.workload, args.seed, "trace" if traced else "main", env)
    try:
        setup_times.append(worker.ready_s)
        worker.read()  # warm-up done
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            order = ["pass", "tpass"] if rounds % 2 == 0 else ["tpass", "pass"]
            round_pass_s = 0.0
            while round_pass_s < ROUND_PASS_SECONDS:
                for cmd in order if traced else ["pass"]:
                    r = worker.ask(cmd)
                    attempted += r["attempted"]
                    failed += r["failed"]
                    errors += r["errors"]
                    failures += r.get("check_failures", [])
                    if "cli_expected" in r:
                        expected = r["cli_expected"]
                    if cmd == "tpass":
                        tpasses.append(r["pass_s"])
                        layers.append(r["layers"])
                    else:
                        passes.append(r["pass_s"])
                        round_pass_s += r["pass_s"]
            if not traced:
                cli.run_round(expected)
                setup_times.append(setup_start(args.workload, args.seed, env))
            else:
                if bytes_written is None:
                    bytes_written = cli.run_round(expected)
                imports.append(import_sample(env))
            rounds += 1
        while not traced and len(setup_times) < MIN_SETUP_STARTS:
            setup_times.append(setup_start(args.workload, args.seed, env))
        while traced and len(imports) < IMPORT_STARTS:
            imports.append(import_sample(env))
        peak_rss = worker.ask("quit")["peak_rss_mib"]
    finally:
        worker.close()

    attempted += cli.attempted
    failed += cli.failed
    errors += cli.errors
    failures += cli.failures
    for e in errors:
        print(f"FAILED OPERATION {e}", file=sys.stderr)
    for f in failures:
        print(f"WRONG OUTPUT {f}", file=sys.stderr)
    if traced:
        counts = [{k: v for k, v in snap.items() if not k.endswith("busy_s")} for snap in layers]
        if any(c != counts[0] for c in counts) or len({n for _, n in imports}) > 1:
            print("WARNING: the counts differ between traced passes or fresh imports", file=sys.stderr)
        med_traced, med_plain = statistics.median(tpasses), statistics.median(passes)
        print(f"trace overhead: traced pass {med_traced:.4f} s vs untraced pass_s {med_plain:.4f} s "
              f"({100 * (med_traced / med_plain - 1):+.1f}%), {len(tpasses)} passes each")
        metrics = {}
        for k, v in layers[0].items():
            if k.endswith("busy_s"):
                metrics[k] = metric(statistics.median(s[k] for s in layers), "s")
            else:
                metrics[k] = metric(v, "count")
        metrics["cli.import_s"] = metric(statistics.median(t for t, _ in imports), "s")
        metrics["cli.modules_imported"] = metric(imports[0][1], "count")
        metrics["cli.bytes_written"] = metric(bytes_written, "bytes")
    else:
        for name, xs in (("pass_s", passes), ("cli_cold_s", cli.times), ("setup_s", setup_times)):
            print(f"{name} samples: {' '.join(f'{x:.4f}' for x in xs)}", file=sys.stderr)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "pass_s": metric(statistics.median(passes), "s"),
            "cli_cold_s": metric(statistics.median(cli.times), "s"),
            "peak_rss_mib": metric(peak_rss, "MiB"),
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
