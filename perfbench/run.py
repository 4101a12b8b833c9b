"""oklim benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload finite-scale --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; oklim is imported from ./src.  One
process, one closed-loop client: the operations of a pass run one after the
other, and whole passes repeat until --seconds have passed.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics (setup_s, ops_per_s,
peak_rss_mb); --trace 1 reports the per-layer metrics of a traced run and
the tracing overhead against an untraced run of the same length.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# One BLAS thread: no more than nproc, the same on every machine, and
# reductions in a fixed order, so reruns of `place` stay bitwise identical.
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def probe_setup(workload, inputs_path):
    """Median import and build times over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_ENV)
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, inputs_path]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return (statistics.median(s["import_s"] + s["build_s"] for s in samples),
            statistics.median(s["import_s"] for s in samples))


def run_passes(ops, seconds):
    """Whole passes until `seconds` have passed; per-pass wall times and outputs."""
    passes, times, failed = [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs = []
        for label, fn in ops:
            try:
                outs.append(fn())
            except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                print(f"operation {label!r} failed: {exc!r}", file=sys.stderr)
                outs.append(None)
                failed += 1
        times.append(time.perf_counter() - t0)
        passes.append(outs)
        if time.perf_counter() - start >= seconds:
            return passes, times, failed


def ops_per_s(passes, times):
    """Median over passes of the operations completed per second of the pass."""
    return statistics.median(sum(out is not None for out in outs) / t
                             for outs, t in zip(passes, times))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oklim", "__init__.py")):
        print(f"no oklim sources at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)

    import workloads  # numpy comes in here, after the thread settings
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        inputs = wl.make_inputs()
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        setup_s, import_s = probe_setup(args.workload, inputs_path)

        import oklim
        import oklim.cli  # the package does not import its CLI module itself
        if os.path.dirname(os.path.abspath(oklim.__file__)) != os.path.join(SRC, "oklim"):
            print(f"oklim imported from {oklim.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        ops = wl.operations(oklim, inputs)

        if args.trace:
            import tracing
            tracer = tracing.Tracer(oklim)
            runs = {False: ([], []), True: ([], [])}  # traced -> (passes, times)
            failed = 0
            # untraced and traced passes alternate, so that drift during the run
            # (first-touch memory, other load) does not bias the overhead
            while min(sum(times) for _, times in runs.values()) < args.seconds:
                for traced, (kind_passes, kind_times) in runs.items():
                    if traced:
                        tracer.install()
                    try:
                        outs, t, f = run_passes(ops, 0)
                    finally:
                        tracer.remove()
                    kind_passes += outs
                    kind_times += t
                    failed += f
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.csv"))
            (passes, times), traced_run = runs[False], runs[True]
            untraced, traced = ops_per_s(passes, times), ops_per_s(*traced_run)
            passes = passes + traced_run[0]
            metrics = tracer.layer_metrics(len(traced_run[1]))
            metrics["import.oklim_s"] = (import_s, "s")
            metrics["trace.ops_per_s"] = (traced, "1/s")
            metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
            metrics["trace.overhead_pct"] = (100.0 * (untraced - traced) / untraced, "%")
        else:
            passes, times, failed = run_passes(ops, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (setup_s, "s"),
                       "ops_per_s": (ops_per_s(passes, times), "1/s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}

        errors = wl.check(inputs, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, pass times "
          + ", ".join(f"{t:.3f}s" for t in times), file=sys.stderr)
    result = {"correct": not errors, "attempted": len(passes) * len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
