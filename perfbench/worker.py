"""The workload process, driven by run.py over stdin/stdout.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|main|trace

It imports gaborinv, builds the workload's inputs from the seed and prints
one JSON line ("ready").  In setup mode it then exits.  Otherwise it runs a
warm-up pass and answers one JSON line per command read from stdin:

    pass   time one pass with the library untouched
    tpass  time one pass with the per-layer tracer installed
    quit   report peak resident memory and exit

The first pass is checked (outside its timed region); every later pass must
give the same verdicts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "main", "trace"], required=True)
    args = ap.parse_args()

    import workloads

    W = workloads.WORKLOADS[args.workload]
    work = W(args.seed)
    reply({"ready": True})
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.LayerTracer()
    # Warm-up: the same operations, on a quarter-size problem for large-L.
    (W(args.seed, L=240) if W is workloads.LargeL else work).run_pass()
    reply({"warm": True})

    first_digest = None
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "quit":
            reply({"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            return 0
        if cmd not in ("pass", "tpass") or (cmd == "tpass" and tracer is None):
            raise SystemExit(f"unknown command {cmd!r}")
        if cmd == "tpass":
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            p = work.run_pass()
            elapsed = time.perf_counter() - t0
        finally:
            if cmd == "tpass":
                tracer.uninstall()
        out = {"pass_s": elapsed, "attempted": p.attempted, "failed": p.failed, "errors": p.errors[:5]}
        if cmd == "tpass":
            out["layers"] = tracer.snapshot()
        digest = work.digest(p)
        if first_digest is None:
            first_digest = digest
            out["check_failures"] = work.check(p)
            out["cli_expected"] = work.cli_expected(p)
        elif digest != first_digest:
            out["check_failures"] = ["verdicts differ from the first pass"]
        reply(out)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
