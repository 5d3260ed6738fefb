"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; uotpool is imported from its ``src/`` tree and
from nowhere else. The run starts fresh worker processes one at a time (set-up
probes, then the measured loop), computes the expected outcomes from the public
step functions, checks every op, and prints two lines: a record of the
environment and run details, then the result object. With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run. Everything it writes goes under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
# Extra set-up measurements per run; the measured loop's own set-up is one more.
SETUP_PROBES = {"bulk_batch": 2, "small_calls": 4, "train_fd": 2, "cli_sweep": 3}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
    }


def run_worker(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    result = workdir / ("setup.json" if setup_only else "result.json")
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        spans = OUT / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    cmd += ["--t-spawn", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def import_uotpool():
    sys.path.insert(0, str(SRC))
    import uotpool

    if Path(uotpool.__file__).resolve().parent != SRC / "uotpool":
        raise BenchError(f"uotpool imported from {uotpool.__file__}, not from {SRC}")
    return uotpool


def check_outcomes(pkg, workload: str, seed: int, outcomes: list[dict]) -> int:
    """Number of ops whose outcome disagrees with the reference."""
    inputs = WORKLOADS[workload].make_inputs(seed)
    want = reference.expected(pkg, workload, inputs, {o["key"] for o in outcomes})
    failed = sum(not reference.matches(o, want[o["key"]]) for o in outcomes)
    # The checker must notice an output moved just beyond tolerance.
    probe = outcomes[0]
    if reference.matches(reference.perturbed(probe), want[probe["key"]]):
        raise BenchError("checker self-test: a perturbed outcome passed the check")
    return failed


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ten samples beyond it, and that percentile."""
    n = len(latencies)
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "uotpool" / "__init__.py").is_file():
        print(f"error: no uotpool source tree at {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES[args.workload]):
                setups.append(run_worker(args, workdir, deadline, True)["setup_s"])
        res = run_worker(args, workdir, deadline, False)
        setups.append(res["setup_s"])
        pkg = import_uotpool()
        outcomes = res["outcomes"]
        failed = check_outcomes(pkg, args.workload, args.seed, outcomes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = res["latencies"]
    n = len(lat)
    tail_s, tail_pct = tail(lat)
    details = {
        "environment": environment(args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop_s": res["loop_s"],
        "ops": n,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": 10,
        "failed_ops_frac": failed / n,
        "setup_samples_s": setups,
    }
    if args.trace:
        details["unbound"] = res["unbound"]
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": n / res["loop_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
            "ok_ops_frac": {"value": 1.0 - failed / n, "unit": "ratio"},
        }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
