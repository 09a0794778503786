"""Time-to-verdict benchmark for cubalex, end to end and layer by layer.

    python3 perfbench/run.py --workload shell_reduce --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; cubalex is imported from `src/`.
One process, one caller, closed loop: each pass runs every operation of the
workload in turn.  A run makes a fixed number of passes, as many as fit in
`--seconds` at the workload's nominal pass time, so that the same seed
always attempts the same operations.  Every operation has a deadline,
enforced from inside this process, and an oracle; an overrun or a wrong
result counts as a failed operation.

With `--trace 0` every pass is untraced and the end-to-end metrics are
printed: `verdict_s` is the median pass time, and an item's latency is its
median time over the passes.  An item is one complex on shell_reduce; one
construction job on build_refine, where all random molecules make one job
and all random forests another; one operation on necklace.
With `--trace 1` untraced and traced passes alternate: the traced ones give
the per-layer metrics (inclusive span times around the calls into each
layer, and work counts) and the ratio of the two pass times gives the
tracing overhead.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record, with the
machine and software, is written to `perfbench/results/`.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

# One caller on a 2-core machine: cap the numeric thread pools before numpy
# is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracing import (Blocked, Deadline, Overrun, Tracer,  # noqa: E402
                     install_vf2_counter)
from workloads import WORKLOADS  # noqa: E402

# Nominal seconds per pass on a 2-core 2.1 GHz Xeon VM at its faster speed;
# a run makes round(seconds / pass) passes, at least MIN_PASSES.
PASS_SECONDS = {"shell_reduce": 9.0, "build_refine": 9.5, "necklace": 9.0}
MIN_PASSES = 2

END_TO_END = {
    "verdict_s": "s", "setup_s": "s", "ok_share": "ratio",
    "peak_rss_mb": "MB", "item_p50_ms": "ms", "item_tail_ms": "ms",
}

# Span names timed in traced passes; each is reported as `<name>_s`.
LAYER_SPANS = (
    "complex_core.build", "complex_core.triangulate",
    "complex_core.isomorphism", "shelling.find", "shelling.verify",
    "shelling.star_replacement", "alexander.reduce", "refinement.refine",
    "refinement.molecule", "refinement.separate", "weaving.rank_sweep",
    "weaving.forest", "necklace.disjointness", "necklace.linking",
    "necklace.containment", "necklace.generate",
)
LAYER_COUNTS = (
    "complex_core.cells_built", "complex_core.simplices_out",
    "complex_core.isomorphism_calls", "complex_core.isomorphism_overruns",
    "complex_core.isomorphism_steps",
    "shelling.complexes", "alexander.reductions", "alexander.ledger_covers",
    "refinement.cells_out", "refinement.molecules", "weaving.rank_cases",
    "necklace.pairs_minimized", "necklace.pairs_certified",
    "necklace.linking_interactions", "necklace.containment_samples",
    "necklace.tubes",
)
PER_LAYER = {f"{name}_s": "s" for name in LAYER_SPANS}
PER_LAYER.update({name: "count" for name in LAYER_COUNTS})
PER_LAYER.update({"shelling.found_ratio": "ratio",
                  "necklace.s_per_pair": "s/pair",
                  "trace.overhead_share": "ratio"})

# At least this many items lie beyond the reported tail latency.
TAIL_BEYOND = 10


def setup(workload, seed, smoke):
    """Imports plus input generation; returns (ops, seconds)."""
    t0 = time.perf_counter()
    import cubalex
    if not Path(cubalex.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cubalex imported from {cubalex.__file__}, "
                         f"not from {SRC}")
    install_vf2_counter()
    ops = WORKLOADS[workload](seed, smoke)
    return ops, time.perf_counter() - t0


def run_pass(ops, tracer):
    """One pass over every operation; returns times, failures and counts."""
    tracer.counts = Counter()
    first_span = len(tracer.spans)
    state = {}
    times, wrong, overruns, blocked = [], [], [], []
    t_pass = time.perf_counter()
    with tracer.span("pass"):
        for op in ops:
            t0 = time.perf_counter()
            try:
                with tracer.span("op:" + op.name), Deadline(op.deadline_s):
                    reason = op.run(tracer, state)
            except Overrun:
                overruns.append(op.name)
                reason = None
            except Blocked:
                blocked.append(op.name)
                reason = None
            except Exception as exc:  # noqa: BLE001 - every op must be attempted
                reason = f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            # an overrun that lands inside a span's exit leaves it open
            del tracer.stack[1:]
            if reason is not None:
                wrong.append((op.name, reason))
    wall = time.perf_counter() - t_pass
    return {"wall_s": wall, "times": times, "wrong": wrong,
            "overruns": overruns, "blocked": blocked, "counts": tracer.counts,
            "layer_s": tracer.layer_seconds(first_span) if tracer.enabled
            else None}


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def measure(ops, passes, trace, tracer):
    """`passes` passes; traced and untraced alternate when `trace` is set,
    starting untraced."""
    untraced, traced = [], []
    for i in range(passes):
        tracer.enabled = trace and i % 2 == 1
        (traced if tracer.enabled else untraced).append(run_pass(ops, tracer))
    tracer.enabled = False
    return untraced, traced


def tail_latency(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND items
    beyond it; the maximum when that percentile would not exceed the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def item_times(ops, passes):
    """{item: [its seconds in each pass]}, adding up the ops of each item."""
    out = {}
    for p in passes:
        per_item = Counter()
        for op, t in zip(ops, p["times"]):
            per_item[op.item] += t
        for item, t in per_item.items():
            out.setdefault(item, []).append(t)
    return out


def end_to_end(ops, untraced, setup_s):
    items = [statistics.median(ts) for ts in item_times(ops, untraced).values()]
    tail, tail_pct = tail_latency(items)
    attempted = sum(len(p["times"]) for p in untraced)
    failed = sum(len(p["wrong"]) + len(p["overruns"]) + len(p["blocked"])
                 for p in untraced)
    metrics = {
        "verdict_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": setup_s,
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "item_p50_ms": 1e3 * statistics.median(items),
        "item_tail_ms": 1e3 * tail,
    }
    notes = {"items": len(items), "item_tail_percentile": tail_pct}
    return metrics, notes


def per_layer(untraced, traced):
    per_pass = []
    for p in traced:
        c, s = p["counts"], p["layer_s"]
        row = {f"{name}_s": s.get(name, 0.0) for name in LAYER_SPANS}
        row.update({name: c.get(name, 0) for name in LAYER_COUNTS})
        complexes = c.get("shelling.complexes", 0)
        row["shelling.found_ratio"] = (c.get("shelling.found", 0) / complexes
                                       if complexes else 0.0)
        pairs = c.get("necklace.pairs_minimized", 0)
        row["necklace.s_per_pair"] = (s.get("necklace.disjointness", 0.0) / pairs
                                      if pairs else 0.0)
        per_pass.append(row)
    metrics = {name: statistics.median(row[name] for row in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_share"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return metrics


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(seed):
    import networkx
    import numpy
    import scipy
    from cubalex import kernels
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "kernels_backend": kernels.BACKEND,
        "thread_caps": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def setup_in_child(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own test")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cubalex" / "__init__.py").is_file():
        print(f"error: no cubalex sources at {SRC}; run from a cubalex "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import_s = time.perf_counter() - _T_START
    ops, own_setup_s = setup(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print(f"{import_s + own_setup_s:.6f}")
        return 0
    # set-up repeated in fresh processes: the median of three samples
    setup_samples = [import_s + own_setup_s] + [setup_in_child(args)
                                                for _ in range(2)]

    # keep the imported modules and the inputs out of every later garbage
    # collection, so that collector pauses scale with the work measured
    gc.collect()
    gc.freeze()
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}"
                           f"-{time.time_ns()}")
    untraced, traced = measure(ops, pass_count(args.workload, args.seconds),
                               args.trace == 1, tracer)
    passes = untraced + traced

    wrong = Counter(f"{name}: {reason}" for p in passes for name, reason in p["wrong"])
    overruns = Counter(name for p in passes for name in p["overruns"])
    blocked = Counter(name for p in passes for name in p["blocked"])
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(wrong.values()) + sum(overruns.values()) + sum(blocked.values())
    e2e, notes = end_to_end(ops, untraced, statistics.median(setup_samples))
    if args.trace:
        metrics, units = per_layer(untraced, traced), PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "run_id": tracer.run_id,
        "machine": machine(args.seed),
        "ops_per_pass": len(ops),
        "passes": {"untraced_s": [p["wall_s"] for p in untraced],
                   "traced_s": [p["wall_s"] for p in traced]},
        "setup_samples_s": setup_samples,
        "end_to_end": e2e, **notes,
        "per_layer": metrics if args.trace else None,
        "attempted": attempted, "failed": failed,
        "wrong_results": dict(wrong), "overruns": dict(overruns),
        "blocked": dict(blocked),
        "item_ms": {item: [1e3 * t for t in ts] for item, ts in
                    item_times(ops, untraced).items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()))

    print(f"{args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(f"  items {notes['items']}, tail at p{notes['item_tail_percentile']:.1f}")
    for name, n in sorted(overruns.items()):
        print(f"  overrun x{n}: {name}")
    for name, n in sorted(blocked.items()):
        print(f"  blocked x{n}: {name}")
    for line, n in sorted(wrong.items()):
        print(f"  wrong x{n}: {line}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
