"""pcdyn benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload survey-n3 [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; pcdyn is imported from its ``src``.  A run

1. times ``SETUP_PROBES`` fresh interpreters from spawn to parsed inputs;
2. runs one untimed pass over the workload's items and checks its outputs
   with the benchmark's own oracle;
3. repeats whole timed passes, with the reference kernel interleaved, until
   ``--seconds`` have passed, and compares every pass with the checked one;
4. prints a JSON ``info`` line (raw wall-clock figures, kernel durations)
   and, last, the result line: end-to-end metrics with ``--trace 0``,
   per-layer metrics from spans with ``--trace 1``.

It exits 1 when an output check fails and 2 when pcdyn cannot be found.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark is single-threaded.  numpy's OpenBLAS otherwise starts one
# thread per CPU at import, which took 90 of numpy's 165 ms import here and
# varied with the other CPU's load, so set-up time drifted by up to a third
# between sets of runs.  Children inherit the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

from refclock import RefClock, ref_seconds, reference_kernel  # noqa: E402

WORKLOAD_NAMES = ("survey-n3", "partition-steep", "attractor-power")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


def inputs_path(name: str, seed: int) -> Path:
    return OUT_DIR / f"{name}-{seed}.inputs.json"


def _kernel_s(runs: int = 3) -> float:
    """Median duration of a few back-to-back kernel runs (the first one in a
    fresh process is slow)."""
    durations = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_kernel()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations)


def setup_probe(name: str, seed: int) -> int:
    """Child side of a set-up measurement: import pcdyn, read the generated
    config documents and parse them into pcdyn objects, report the phases
    and the kernel's duration in this process before and after them."""
    start = time.perf_counter()
    before = _kernel_s()
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import pcdyn.cli  # noqa: F401  (pulls in every pcdyn module)
    t1 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed, OUT_DIR)
    t2 = time.perf_counter()
    w.build(json.loads(inputs_path(name, seed).read_text()))
    t3 = time.perf_counter()
    after = _kernel_s()
    print(json.dumps({"start": start, "import_s": t1 - t0, "build_s": t3 - t2,
                      "kernels": [before, after]}))
    return 0


def measure_setup(name: str, seed: int) -> dict:
    """Median over fresh interpreters of the time from the spawn to parsed
    inputs, and of its phases, in ref-s.

    The child times its own start from the spawn (on the shared monotonic
    clock) and its phases, and runs the kernel before and after them on
    whichever CPU it was given.
    """
    runs = []
    for _ in range(SETUP_PROBES):
        t_spawn = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        raw = {"start_s": r["start"] - t_spawn, "import_s": r["import_s"],
               "build_s": r["build_s"]}
        run = {k: ref_seconds(v, *r["kernels"]) for k, v in raw.items()}
        run["setup_s"] = sum(run.values())
        run["raw_setup_s"] = sum(raw.values())
        runs.append(run)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def item_failures(fingerprints, reference) -> set:
    return {i for i, (a, b) in enumerate(zip(fingerprints, reference)) if a != b}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pcdyn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pcdyn" / "__init__.py").is_file():
        print(f"pcdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads
    from spans import Tracer

    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    w = cls(seed, OUT_DIR)
    docs = w.generate()
    inputs = inputs_path(args.workload, seed)
    inputs.write_text(json.dumps(docs))
    try:
        setup = measure_setup(args.workload, seed)
    finally:
        inputs.unlink()
    w.build(docs)
    n_items = w.items_per_pass

    reference, kept, failures = w.run_pass(workloads.NullClock(), keep=True)
    problems = w.check(kept)
    del kept
    bad = {i for i, _ in problems} | {i for i, _ in failures}
    if -1 in bad:
        bad = set(range(n_items))
    failed = len(bad)
    mismatched = 0

    clock = RefClock()
    tracer = Tracer(clock) if args.trace else None
    if tracer:
        tracer.install()
    timed_passes = 0
    t_start = time.perf_counter()
    clock.start()
    try:
        while True:
            fps, _, pass_failures = w.run_pass(clock, keep=False)
            timed_passes += 1
            differ = item_failures(fps, reference)
            mismatched += len(differ - bad)
            failed += len(bad | differ | {i for i, _ in pass_failures})
            if time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        clock.finish()
        if tracer:
            tracer.restore()

    for i, msg in (problems + failures)[:20]:
        print(f"item {i}: {msg}", file=sys.stderr)
    if mismatched:
        print(f"{mismatched} items differ from the checked pass", file=sys.stderr)
    correct = not problems and not mismatched

    items = len(clock.items)
    item_ref = clock.item_ref_s()
    raw_items = [e - s for s, e, _ in clock.items]
    ips = items / clock.total_ref_s()
    info = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "timed_passes": timed_passes, "items_timed": items,
        "items_per_ref_s": ips,
        "item_mean_ref_ms": 1e3 * sum(item_ref) / items,
        "raw_items_per_s": items / clock.wall_s(),
        "raw_item_p50_ms": 1e3 * statistics.median(raw_items),
        "raw_setup_s": setup["raw_setup_s"],
        "kernel_ms": [1e3 * min(clock.kernels), 1e3 * statistics.median(clock.kernels),
                      1e3 * max(clock.kernels)],
        "kernel_runs": len(clock.kernels),
        "setup_ref_s": {k: setup[k] for k in ("start_s", "import_s", "build_s")},
    }
    if tracer:
        metrics = tracer.metrics(items)
        metrics["pcdyn.import.ms"] = {"value": 1e3 * setup["import_s"], "unit": "ref-ms"}
        metrics["config.parse_config.ms"] = {"value": 1e3 * setup["build_s"], "unit": "ref-ms"}
        tracer.write(OUT_DIR / f"spans-{args.workload}-{seed}.jsonl")
    else:
        metrics = {
            "items_per_ref_s": {"value": ips, "unit": "items/ref-s"},
            "item_p50_ref_ms": {"value": 1e3 * statistics.median(item_ref), "unit": "ref-ms"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": n_items * (1 + timed_passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
