#!/usr/bin/env python3
"""seqret benchmark: train, index and query workloads.

    python3 perfbench/run.py --workload {train,index,query,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One workload runs in this process and
prints its result as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with
tracing off; with ``--trace 1`` they are its per-layer metrics, from a
run that first measures some rounds untraced and then as many rounds
again with every public seqret function wrapped in a span, so the
difference gives the tracing overhead.  ``--workload all`` runs the three
workloads one after another, each in its own process.

Outputs go under ``.perfbench/`` at the checkout root: the query
workload's prepared artifacts (``cache/``, built once per source tree),
each run's written artifacts (``runs/``) and trace files (``traces/``).
"""

import os

# One BLAS thread: runs stay reproducible and start no more threads than
# there are processors.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "index", "query")
# set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed (at most SETUP_MAX times), so that a set-up of a few milliseconds
# still gives a steady median
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX = 60
PREPARE_TIMEOUT_S = 900


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_program():
    """Import seqret from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "seqret" / "__init__.py").is_file():
        sys.exit(f"error: no seqret sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import seqret
    if Path(seqret.__file__).resolve().parent != (src / "seqret").resolve():
        sys.exit(f"error: seqret imported from {seqret.__file__}, not {src}")


def _query_cache() -> Path:
    """Prepared query artifacts, built in a child process on first use and
    kept under a digest of the program sources and the preparation recipe."""
    import workloads
    digest = hashlib.sha256(workloads.prepare_recipe().encode())
    for path in sorted((ROOT / "src" / "seqret").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    cache = ROOT / ".perfbench" / "cache" / f"query-{digest.hexdigest()[:16]}"
    if not (cache / "done").is_file():
        tmp = cache.with_name(cache.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--prepare", str(tmp)],
                       check=True, timeout=PREPARE_TIMEOUT_S, stdout=sys.stderr)
        (tmp / "done").write_text("ok\n")
        shutil.rmtree(cache, ignore_errors=True)
        tmp.rename(cache)
    return cache


def _quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _rounds(workload, state, seconds: float | None = None, count: int | None = None):
    """Whole rounds, until ``seconds`` have passed or ``count`` rounds ran.

    The program's graphs are reference cycles that only the cyclic
    collector frees; collecting between rounds starts every round from
    the heap a fresh ``seqret`` process would have, so the peak RSS does
    not grow with the number of rounds a run fits in."""
    ops, n = [], 0
    t0 = perf_counter()
    while True:
        ops.extend(workload.round(state))
        gc.collect()
        n += 1
        if (count is not None and n >= count) or (
                count is None and perf_counter() - t0 >= seconds):
            return ops, n, perf_counter() - t0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import Tracer

    out = ROOT / ".perfbench" / "runs" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if name == "query":
        workload = workloads.QueryWorkload(seed, out, _query_cache())
    else:
        workload = {"train": workloads.TrainWorkload,
                    "index": workloads.IndexWorkload}[name](seed, out)

    setup_times = []
    while (len(setup_times) < SETUP_REPEATS
           or (sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX)):
        t0 = perf_counter()
        state = workload.setup()
        setup_times.append(perf_counter() - t0)

    spec = _load_spec()
    if not trace:
        ops, _, _ = _rounds(workload, state, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, checked = workload.check(state, ops)
        good = [op.seconds * 1e3 for op in ops if op.ok]
        values = {
            "setup_s": _quantile(setup_times, 0.5),
            "peak_rss_mb": peak_rss_mb,
            "latency_p50_ms": _quantile(good, 0.5) if good else 0.0,
            "latency_p90_ms": _quantile(good, 0.9) if good else 0.0,
            **workload.end_to_end(ops),
            **{k: checked[k] for k in ("quality", "artifact_bytes") if k in checked},
        }
        wanted = spec["end_to_end"]
    else:
        # one warm-up round first, so that neither side of the overhead
        # comparison pays the cold start alone
        warmup_ops, _, _ = _rounds(workload, state, count=1)
        half = max(1.0, seconds / 2.0)
        untraced_ops, n_rounds, untraced_s = _rounds(workload, state, seconds=half)
        tracer = Tracer().install()
        try:
            tracer.phase = "setup"
            state = workload.setup()
            tracer.phase = "loop"
            ops, _, traced_s = _rounds(workload, state, count=n_rounds)
        finally:
            tracer.uninstall()
        problems, checked = workload.check(state, ops)
        values = workload.layer_metrics(tracer, ops, state)
        n_ops = max(1, len(ops))
        values["harness.self_ms"] = (traced_s - tracer.top_level()) / n_ops * 1e3
        values["trace.overhead_ms"] = (traced_s - untraced_s) / n_ops * 1e3
        values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{name}-seed{seed}.json")
        wanted = spec["per_layer"]
        ops = warmup_ops + untraced_ops + ops

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload {name} did not measure {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for key, metric in metrics.items():
        print(f"{name}\t{key}\t{metric['value']:.6g}\t{metric['unit']}")
    if "chance" in checked:
        print(f"{name}\tquality at chance\t{checked['chance']:.6g}\tscore")
    return {"correct": not problems, "attempted": len(ops),
            "failed": sum(not op.ok for op in ops), "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; prints every result line."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"{name}\tattempted {r['attempted']}\tfailed {r['failed']}\tcorrect {r['correct']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.prepare:
        import workloads
        workloads.prepare_query(Path(args.prepare))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(_load_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
