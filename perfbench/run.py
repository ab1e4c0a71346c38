"""Same-machine benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
child process (``perfbench/workloads.py``) that imports ``repro`` from
the checkout's ``src``: first a few set-up-only children (``setup_s`` is
the median of their set-ups and the measuring child's), then the child
that measures.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced pass, plus ``tracing_overhead`` against an untraced pass of
the same child.  The exit code is 0 only when every output check passed.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import failed_frac, ratio  # noqa: E402

WORKLOADS = ("table1-cg1024", "chaos-recovery", "campaign-cold",
             "campaign-warm")
#: set-up-only children before the measuring one
SETUP_PROBES = 4
#: every run must end within this many seconds
DEADLINE_S = 170
#: variables that would change what the program computes or how its
#: pools start; the benchmark runs the program's defaults
UNSET_ENV = ("REPRO_SANITIZE", "REPRO_MP_START_METHOD", "PYTHONPATH")


class ChildFailed(RuntimeError):
    pass


def _child(args, phase: str, out_dir: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase,
           "--out-dir", out_dir]
    # a process group of its own, so a timeout can stop the pool workers too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline
                                                - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{phase} child passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"{phase} child exited {proc.returncode}:\n"
                          f"{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{phase} child printed nothing:\n{err[-4000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    try:
        # set-up time is an end-to-end metric: the traced run skips it
        setups = [_child(args, "setup", out_dir, deadline)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        run = _child(args, "trace" if args.trace else "run", out_dir,
                     deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(run)

    untraced = run["untraced"]
    attempted, failed = untraced["attempted"], untraced["failed"]
    if args.trace:
        attempted += run["traced"]["attempted"]
        failed += run["traced"]["failed"]
    for error in run["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    correct = failed == 0 and not run["errors"]

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        traced = run["traced"]
        base, rate = untraced["norm_ops_per_s"], traced["norm_ops_per_s"]
        metrics = {name: {"value": value, "unit": metric_unit(name)}
                   for name, value in sorted(run["layers"].items())}
        metrics["tracing_overhead"] = {"value": ratio(base, rate),
                                       "unit": "x"}
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        print(f"  tracing_overhead base: untraced {base:.6g} ops/s over "
              f"{untraced['attempted']} ops; traced {rate:.6g} ops/s over "
              f"{traced['attempted']} ops; spans -> {traced['spans']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"]
                                                   for s in setups),
                        "unit": "s"},
            "norm_ops_per_s": {"value": untraced["norm_ops_per_s"],
                               "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}")
        print("  setup_s samples (host seconds): " + ", ".join(
            f"{s['setup_s']:.4f} ({s['setup_host_s']:.4f})" for s in setups))
        print(f"  ops: {attempted} in {untraced['wall_s']:.3f} s over "
              f"{untraced['batches']} batches: {untraced['ops_per_s']:.6g} "
              f"ops per host second at a mean machine speed of "
              f"{untraced['machine_speed']:.4g}/s")
    print(f"  failed_frac  {failed_frac(failed, attempted):.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", ".share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
