"""Benchmark for finosc: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it describe the run.  See perfbench/README.md.
"""

import os

# With numpy's default two-thread OpenBLAS pool, eigh and the Hamiltonian
# assembly stalled for tens of milliseconds per call on a 2-vCPU guest (see
# the README).  Every process the benchmark starts inherits one BLAS thread
# from here; it must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
IMPORT_PROBES = 5  # fresh interpreters timed from start to a loaded package
SETUP_REPEATS = 3  # in-process builds of the workload's state
MAX_PROBLEMS = 20


def import_probe(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import finosc, finosc.cli"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_round(wl, r, samples, problems, failures, tracer, first_id):
    """Run round r, appending (kind, seconds) of each request to ``samples``,
    its check problems to ``problems`` and its error, if any, to
    ``failures``; returns the requests attempted and the busy seconds."""
    reqs = wl.round(r)
    busy = 0.0
    for k, req in enumerate(reqs):
        if tracer is not None:
            tracer.request_id = first_id + k
        t0 = time.perf_counter()
        try:
            out = wl.run(req)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        busy += dt
        samples.append((wl.key(req), dt))
        problems += wl.accept(req, out)
    return len(reqs), busy


def measure(wl, seconds, problems, failures):
    """The untraced timed loop; returns the end-to-end figures of the loop
    and the requests attempted."""
    # Latencies are summarized per window of whole rounds.  A frft window
    # holds 1000 like requests and is dropped once summarized, so the memory a
    # run holds does not grow with its length.  A cli round holds six unlike
    # requests, so the whole run is its window.  The host this was built on
    # switches between a fast and a slow speed every few seconds; a median
    # over windows jumps between the two levels with the share of the run
    # each covers, so the windows are combined by their mean, which moves in
    # proportion to that share.
    windows, samples = [], []
    attempted = rounds = 0
    t_start = time.perf_counter()
    while True:
        attempted += run_round(wl, rounds, samples, problems, failures, None, attempted)[0]
        wl.end_round()
        rounds += 1
        done = rounds >= wl.min_rounds and time.perf_counter() - t_start >= seconds
        if (rounds % wl.window_rounds == 0) if wl.window_rounds else done:
            if samples:
                windows.append(wl.summarize(samples))
            samples = []
            if done:
                break
    info = {"rounds": rounds, "windows": len(windows),
            "elapsed_s": round(time.perf_counter() - t_start, 3)}
    if not windows:
        return None, attempted, info
    figures = {
        "ops_per_s": (sum(w[0] for w in windows) / sum(w[1] for w in windows), "1/s"),
        "op_p50_ms": (1e3 * statistics.fmean(w[2] for w in windows), "ms"),
        "op_tail_ms": (1e3 * statistics.fmean(w[3] for w in windows), "ms"),
    }
    return figures, attempted, info


def measure_traced(wl, seconds, problems, failures, tracer, patch):
    """The traced loop.  Round 0 is traced and warms every cache.  After it,
    odd rounds run untraced and even rounds traced, so that each traced
    round follows an untraced twin of the same work.  The tracing overhead
    is the median, over those pairs and the kinds of request in a round, of
    the traced time over the untraced time.  Returns the tally of the traced
    rounds after round 0, their count, the overhead in percent and the
    requests attempted."""
    samples = []
    by_kind = []  # per round: {kind: busy seconds}
    attempted = rounds = 0
    min_rounds = max(wl.min_rounds, 3)
    t_start = time.perf_counter()
    while True:
        if rounds % 2 == 0:
            patch.enable()
        else:
            patch.disable()
        attempted += run_round(wl, rounds, samples, problems, failures, tracer, attempted)[0]
        kinds = {}
        for key, t in samples:
            kinds[key] = kinds.get(key, 0.0) + t
        by_kind.append(kinds)
        samples.clear()
        wl.end_round()
        if rounds == 0:
            warm = tracer.tally()
        rounds += 1
        if rounds % 2 and rounds >= min_rounds and time.perf_counter() - t_start >= seconds:
            break
    patch.disable()
    ratios = [by_kind[r][k] / by_kind[r - 1][k] for r in range(2, rounds, 2)
              for k in by_kind[r] if by_kind[r - 1].get(k)]
    overhead = 100.0 * (statistics.median(ratios) - 1.0) if ratios else float("nan")
    info = {"rounds": rounds, "traced_rounds": rounds // 2,
            "elapsed_s": round(time.perf_counter() - t_start, 3)}
    return tracer.tally() - warm, rounds // 2, overhead, attempted, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli", "frft-sweep", "frft-fresh"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finosc", "__init__.py")):
        print(f"error: no finosc sources at {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ, PYTHONPATH=SRC)

    import numpy as np
    import finosc
    import finosc.cli  # noqa: F401

    if not os.path.abspath(finosc.__file__).startswith(SRC + os.sep):
        print(f"error: finosc was imported from {finosc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = patch = None
    if args.trace:
        tracer = tracing.Tracer()
        patch = tracing.install(tracer)
        probes = []
    else:
        probes = [import_probe(env) for _ in range(IMPORT_PROBES)]

    rng = np.random.default_rng(args.seed)
    wl = workloads.WORKLOADS[args.workload](finosc, rng, OUT_DIR)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t0)

    problems, failures = [], []
    if tracer is None:
        figures, attempted, info = measure(wl, args.seconds, problems, failures)
        # read before the checks, which import scipy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if figures is None:
            print(f"error: every request failed, first: {failures[0]}", file=sys.stderr)
            return 1
        metrics = {"setup_s": (statistics.median(probes) + statistics.median(builds), "s"),
                   **figures, "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        set_up = tracer.tally()
        loop, traced_rounds, overhead, attempted, info = measure_traced(
            wl, args.seconds, problems, failures, tracer, patch)
        metrics = tracing.layer_metrics(loop, traced_rounds, tracer.maxima)
        for name, value in tracing.layer_metrics(set_up, SETUP_REPEATS, {}).items():
            if name in tracing.SETUP_LAYERS:
                metrics["setup." + name] = value
        metrics["cli.out_bytes"] = (getattr(wl, "out_bytes", 0) / info["rounds"], "count")
        metrics["trace.overhead_pct"] = (overhead, "%")

    problems += wl.final_checks()

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **info,
        "ops": attempted, "tail": wl.tail, "import_probe_s": [round(p, 4) for p in probes],
        "setup_build_s": [round(b, 4) for b in builds],
        "jacobi_backend": getattr(finosc, "JACOBI_BACKEND", "unknown"),
        "python": platform.python_version(), "numpy": np.__version__,
    }
    print("run: " + json.dumps(info))
    if tracer is not None:
        print("trace: " + json.dumps({"absent": tracer.absent}))
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.npz")
        tracer.save(path)
        print(f"trace: spans written to {os.path.relpath(path, ROOT)}")
    for kind, found in (("failed", failures), ("problem", problems)):
        for p in found[:MAX_PROBLEMS]:
            print(f"{kind}: {p}")
        if len(found) > MAX_PROBLEMS:
            print(f"{kind}: ... {len(found) - MAX_PROBLEMS} more")

    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
