"""Benchmark entry point for causalfair.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports the package from the
checkout's ``src``. It times set-up in fresh interpreters, then repeats the
workload's operation in a closed loop (one caller, the next operation only
after the previous one finished), cycling over the run's datasets, until
another operation would take the measured time past ``--seconds`` and every
dataset has run twice, so that each run also checks its outputs repeat byte
for byte. Every operation's outputs are verified outside the timed region.
Set-up probes run before each operation and after the last one, so that
``setup_s`` samples the whole run rather than one moment of it.

With ``--trace 0`` the operations run untraced and the end-to-end metrics
named in ``BENCHMARK.json`` are reported. With ``--trace 1`` untraced and
traced operations alternate on the first dataset until two traced ones have
run, so their counters can be compared, and the per-layer metrics of the
traced ones are reported, with the tracing overhead. The last line of
standard output is the result object; the line before it is a record with
the environment, sample counts and counters, also written with the spans
under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "causalfair" / "schemas" / "summary.schema.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
PROBE = Path(__file__).resolve().with_name("probe.py")

# The workload runs in one process with no extra threads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3  # fresh interpreters per gap between operations


def metric_units(trace):
    """Name and unit of each metric the run reports, as BENCHMARK.json lists them."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def tail_stats(values):
    """Median, and the highest of p90/p99/p99.9 with ten samples beyond it."""
    import numpy as np

    stats = {"n": len(values), "p50": statistics.median(values)}
    for q in (90, 99, 99.9):
        if len(values) * (100 - q) / 100 >= 10:
            stats[f"p{q:g}"] = float(np.percentile(values, q))
    return stats


def git_sha():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "causalfair").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def setup_times(config_path):
    """Seconds to import causalfair and load the config, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(config_path)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["package"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported causalfair from {probe['package']}")
        times.append(probe["setup_s"])
    return times


def check_op(workload, op, out):
    """Problems with one operation's outputs; empty when it verifies."""
    import verify

    if op.error:
        return [op.error]
    problems = [f"{label}: exit code {code}" for label, code in op.codes.items() if code != 0]
    if problems:
        return problems
    try:
        if workload.staged:
            return verify.verify_staged(op, out)
        return verify.verify_run(op, out, SCHEMA)
    except Exception as exc:  # malformed output is a failed operation
        return [f"verification raised {type(exc).__name__}: {exc}"]


def measure(workload, seed, seconds, trace, work=WORK):
    """Run the closed loop; returns (metrics, attempted, failed, record, spans)."""
    import tracing
    import verify
    from workloads import run_op

    run_dir = Path(work) / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # A traced run keeps to one dataset, so its traced and untraced operations
    # and its repeated counters compare like with like.
    seeds = workload.seeds(seed)[:1] if trace else workload.seeds(seed)
    configs = []
    for sub_seed in seeds:
        configs.append(run_dir / f"config-{sub_seed}.json")
        configs[-1].write_text(json.dumps(workload.config(sub_seed), sort_keys=True))

    tracer = tracing.Tracer()
    ops, layers, setup = [], [], []
    first_outputs, first_counters, peak_rss_mb = {}, {}, None
    while True:
        index = len(ops)
        dataset = index % len(configs)  # cycle so every dataset repeats
        traced = bool(trace) and index % 2 == 1
        setup += setup_times(configs[dataset])
        out = run_dir / f"op{index}"
        stages = workload.stages(str(configs[dataset]), str(out))
        if traced:
            tracer.run_id = index
            with tracing.instrumented(tracer):
                op = run_op(stages)
        else:
            op = run_op(stages)
        if peak_rss_mb is None:  # before verification loads its own libraries
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = check_op(workload, op, out)
        outputs = verify.tree_digest(out) if out.is_dir() else {}
        outputs.update({f"stdout:{k}": v for k, v in op.stdout.items()})
        if outputs != first_outputs.setdefault(dataset, outputs):
            problems.append("outputs differ from the first operation on the same seed")
        if traced:
            layer = tracing.layer_metrics(tracer.spans, index, op.wall)
            counters = {k: layer[k] for k in tracing.EXACT_COUNTERS}
            if counters != first_counters.setdefault(dataset, counters):
                problems.append(f"counters differ from the first traced operation: {counters}")
            layers.append(layer)
        ops.append({"seed": seeds[dataset], "wall": op.wall, "cpu": op.cpu,
                    "traced": traced, "problems": problems})
        shutil.rmtree(out, ignore_errors=True)

        walls = [o["wall"] for o in ops]
        repeated = len(ops) >= 2 * len(configs) and sum(o["traced"] for o in ops) >= 2 * bool(trace)
        if repeated and sum(walls) + statistics.median(walls) > seconds:
            break
    setup += setup_times(configs[0])
    shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(ops)
    failed = sum(bool(o["problems"]) for o in ops)
    untraced = [o for o in ops if not o["traced"]]
    timings = {
        "setup_s": tail_stats(setup),
        "wall_s": tail_stats([o["wall"] for o in untraced]),
        "cpu_s": tail_stats([o["cpu"] for o in untraced]),
    }
    if trace:
        traced_walls = [o["wall"] for o in ops if o["traced"]]
        metrics = {name: statistics.median(m[name] for m in layers) for name in tracing.PER_LAYER}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - timings["wall_s"]["p50"]
        metrics["failed_ratio"] = failed / attempted
        lp_calls = [s.duration for s in tracer.spans if s.name == "linprog.solve"]
        timings["linprog.solve_call_s"] = tail_stats(lp_calls)
        timings["trace.wall_s"] = tail_stats(traced_walls)
    else:
        metrics = {
            "wall_s": timings["wall_s"]["p50"],
            "setup_s": timings["setup_s"]["p50"],
            "cpu_s": timings["cpu_s"]["p50"],
            "peak_rss_mb": peak_rss_mb,
        }
    record = {
        "workload": workload.name,
        "trace": int(bool(trace)),
        "environment": environment(seed),
        "timings": timings,
        "peak_rss_mb": peak_rss_mb,
        "counters": {seeds[j]: c for j, c in first_counters.items()},
        "ops": ops,
    }
    return metrics, attempted, failed, record, tracer.spans


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    if not (SRC / "causalfair" / "__init__.py").is_file():
        print(f"bench: no causalfair package under {SRC}", file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"  # read by OpenBLAS when numpy is first imported
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import causalfair
    import workloads

    if not Path(causalfair.__file__).resolve().is_relative_to(SRC):
        print(f"bench: causalfair imported from {causalfair.__file__}, not {SRC}", file=sys.stderr)
        return 2

    metrics, attempted, failed, record, spans = measure(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(vars(span)) + "\n")
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in metric_units(args.trace).items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
