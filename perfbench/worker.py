"""The workload process: set up, run a closed loop of ops, write the outcomes.

One caller, one thread: each op starts when the previous one returned.
``run.py`` starts this script in a fresh process per run (and per set-up
probe) and passes the monotonic time at which it started the process, so
``setup_s`` runs from process start to the end of the first op, minus the
time spent generating inputs. This relies on ``time.monotonic`` reading one
system-wide clock in both processes, as it does on Linux. Usage (normally
only through run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --t-spawn T --result PATH --workdir DIR [--spans PATH] [--setup-only]
"""

import argparse
import json
import resource
import sys
import time

from workloads import WORKLOADS

# The tail percentile needs ten samples beyond it.
MIN_OPS = 11


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    g0 = time.monotonic()
    inputs = wl.make_inputs(args.seed)
    gen_s = time.monotonic() - g0

    import uotpool

    ops = wl.ops(uotpool, inputs, args.workdir)
    ops[0](0)
    setup_s = time.monotonic() - args.t_spawn - gen_s
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.result, result)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    # Traced runs alternate untraced and traced rounds and need two of each slot.
    min_ops = max(MIN_OPS, 2 * len(ops) if tracer else 0)
    latencies, traced, raws = [], [], []
    t_loop = time.perf_counter()
    while True:
        r, j = divmod(len(latencies), len(ops))
        on = tracer is not None and r % 2 == 1
        if tracer is not None:
            if j == 0:
                (tracer.install if on else tracer.uninstall)()
            tracer.op_id = len(latencies)
        t0 = time.perf_counter()
        try:
            raw, err = ops[j](r), None
        except Exception as exc:  # an op that raises is an outcome to check
            raw, err = None, type(exc).__name__
        latencies.append(time.perf_counter() - t0)
        traced.append(on)
        raws.append((wl.key(j, r), raw, err))
        elapsed = time.perf_counter() - t_loop
        n = len(latencies)
        # Stop at the op boundary nearest to --seconds.
        if elapsed + 0.5 * elapsed / n >= args.seconds and n >= min_ops:
            break
    if tracer is not None:
        tracer.uninstall()
    result["loop_s"] = elapsed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["latencies"] = latencies
    result["outcomes"] = [
        {"key": key, **({"raises": err} if err is not None else wl.encode(raw))}
        for key, raw, err in raws
    ]
    if tracer is not None:
        result["per_layer"] = tracer.metrics(
            sum(traced), sum(t for t, on in zip(latencies, traced) if on))
        # Per slot, traced rounds against the untraced rounds of the same run.
        mean = {True: [], False: []}
        for j in range(len(ops)):
            for on in mean:
                sample = [t for t, o in zip(latencies[j::len(ops)], traced[j::len(ops)]) if o is on]
                mean[on].append(sum(sample) / len(sample))
        result["per_layer"]["trace.overhead_frac"] = {
            "value": sum(mean[True]) / sum(mean[False]) - 1.0, "unit": "ratio"}
        result["unbound"] = tracer.unbound
        if args.spans:
            tracer.write(args.spans)
    _write(args.result, result)
    return 0


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
