"""KG-construction benchmark for rex_ray, measured from outside the
program.

    python3 perfbench/run.py --workload scored_pairs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke                 # every workload once, tiny
    python3 perfbench/run.py --write-benchmark-json  # regenerate BENCHMARK.json

Run from the repository root.  Inputs are generated from ``--seed``
(``gen.py``); references come from DuckDB (``reference.py``) and are
computed before any timing.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Every
file the benchmark writes lives under ``.pbw/`` at the repository root;
span traces are kept in ``.pbw/traces/``, everything else is removed.
The work runs in a child process; the script, a child subreaper, exits
only after that child and every process it started (Ray's included)
have ended.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as OpTimeout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbw")
with open(os.path.join(HERE, "config.json")) as f:
    CONFIG = json.load(f)

# workloads the default suite runs, with the reason each is there;
# bulk_build and longtail_build run in --smoke and by hand (README.md)
WHY = {
    "checkpointed_increment": "resumable bootstrap, then an incremental append with a Bloom anti-join, then a no-op resume",
    "scored_pairs": "fused featurize and PCNN scorer on an actor pool, the only model-inference path",
}

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("build_s", "s", "lower", 0.25),
    ("docs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
]

# name, unit, better, source: (span name, field) of the traced run, or a
# key of the workload's stats / kernel timings
PER_LAYER = [
    ("sources.read_s", "s", "lower", ("sources.read", "s")),
    ("sources.synthesize_s", "s", "lower", ("sources.synthesize", "s")),
    ("sources.normalize_s", "s", "lower", ("sources.normalize", "s")),
    ("stages.extract.s", "s", "lower", ("stages.extract", "s")),
    ("stages.extract.rows_out", "count", "lower", ("stages.extract", "rows")),
    ("stages.extract.bytes_out", "bytes", "lower", ("stages.extract", "bytes")),
    ("stages.extract.mentions_per_token", "ratio", "lower", "mentions_per_token"),
    ("pipelines.kg.distinct_surfaces_s", "s", "lower",
     ("pipelines.kg.distinct_surfaces", "s")),
    ("pipelines.kg.n_surfaces", "count", "lower", "n_surfaces"),
    ("pipelines.kg.route_lp", "bool", "lower", "route_lp"),
    ("stages.canonical.s", "s", "lower", ("stages.canonical", "s")),
    ("stages.link.s", "s", "lower", ("stages.link", "s")),
    ("stages.link.rows", "count", "lower", ("stages.link", "rows")),
    ("stages.link.nil_frac", "frac", "lower", "nil_frac"),
    ("stages.aggregate.dedup_s", "s", "lower", ("stages.aggregate.dedup", "s")),
    ("stages.aggregate.store_rows", "count", "lower", "store_rows"),
    ("stages.aggregate.store_per_candidate", "ratio", "lower",
     "store_per_candidate"),
    ("state.checkpoint.part_s_p50", "s", "lower", "part_s_p50"),
    ("state.checkpoint.parts_run", "count", "lower", "parts_run"),
    ("state.checkpoint.parts_skipped", "count", "higher", "parts_skipped"),
    ("state.checkpoint.bytes_written", "bytes", "lower", "bytes_written"),
    ("state.checkpoint.read_output_s", "s", "lower",
     ("state.checkpoint.read_output", "s")),
    ("state.checkpoint.resume_s", "s", "lower", "resume_s"),
    ("stages.relational.anti_join_s", "s", "lower",
     ("stages.relational.anti_join", "s")),
    ("stages.relational.new_keys", "count", "lower", "new_keys"),
    ("stages.scorer.s", "s", "lower", ("stages.scorer", "s")),
    ("stages.scorer.pairs", "count", "lower", ("stages.scorer", "rows")),
    ("kernel.synthesize_batch_ms", "ms", "lower", "kernel.synthesize_batch_ms"),
    ("kernel.text_view_batch_ms", "ms", "lower", "kernel.text_view_batch_ms"),
    ("kernel.triple_extractor_ms", "ms", "lower", "kernel.triple_extractor_ms"),
    ("kernel.canonical_linker_ms", "ms", "lower", "kernel.canonical_linker_ms"),
    ("kernel.dedup_combiner_ms", "ms", "lower", "kernel.dedup_combiner_ms"),
    ("kernel.featurize_score_ms", "ms", "lower", "kernel.featurize_score_ms"),
    ("trace.overhead_frac", "frac", "lower", "overhead_frac"),
]


class Hung(Exception):
    """An operation exceeded its timeout; the run stops."""


class Ops:
    """Runs each operation in a worker thread under a timeout and
    counts attempts and failures (exception, mismatch or timeout)."""

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self.attempted = self.failed = 0
        self._pool = ThreadPoolExecutor(1)

    def call(self, fn):
        self.attempted += 1
        future = self._pool.submit(fn)
        try:
            return future.result(timeout=self.timeout_s)
        except OpTimeout:
            self.failed += 1
            print(f"# timeout after {self.timeout_s} s", file=sys.stderr)
            raise Hung()
        except Exception:  # any failure counts; the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            # a dataset left in a reference cycle keeps its actor pool,
            # and with it a CPU, until collected; the next op would wait
            gc.collect()


def ray_start() -> None:
    import logging

    import ray
    from ray.data import DataContext

    kw = dict(
        address="local", num_cpus=CONFIG["ray"]["num_cpus"],
        object_store_memory=CONFIG["ray"]["object_store_mib"] << 20,
        include_dashboard=False, logging_level="ERROR", log_to_driver=False,
    )
    # Ray's socket paths sit ~70 bytes below its temp dir and AF_UNIX
    # allows 107; a deeper checkout falls back to Ray's default
    if len(WORK) + 70 <= 107:
        kw["_temp_dir"] = WORK
    ray.init(**kw)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def proc_table() -> dict:
    """pid -> (state, parent pid) of every process in /proc."""
    table = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            table[int(pid)] = (fields[0], int(fields[1]))
        except (OSError, IndexError, ValueError):
            pass
    return table


def peak_rss_mib() -> float:
    """Summed VmHWM of this process and all its descendants."""
    parent = {pid: pp for pid, (_, pp) in proc_table().items()}
    ours, frontier = {os.getpid()}, [os.getpid()]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p and c not in ours]
        ours.update(kids)
        frontier.extend(kids)
    total_kib = 0
    for pid in ours:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except OSError:
            pass
    return total_kib / 1024.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(w, tr, ok_iters, samples, kernel_ms) -> dict:
    stats = dict(w.stats, **kernel_ms)
    stats["resume_s"] = median([s["resume_s"] for s in samples if "resume_s" in s])
    roots = [s["end"] - s["start"] for s in tr.spans
             if s["parent"] is None and s["iteration"] in ok_iters]
    build_s = median([s["build_s"] for s in samples])
    stats["overhead_frac"] = median(roots) / build_s - 1.0 if build_s else 0.0
    totals = [tr.totals(i) for i in ok_iters]
    out = {}
    for name, unit, _, src in PER_LAYER:
        if isinstance(src, tuple):
            span, field = src
            value = median([t.get(span, {}).get(field, 0) for t in totals])
        else:
            value = stats.get(src, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def run(args) -> int:
    import ray
    import workloads

    ops = Ops(CONFIG["op_timeout_s"])
    data = os.path.join(WORK, f"data-{os.getpid()}")
    w = workloads.WORKLOADS[args.workload](
        args.seed, CONFIG["workloads"][args.workload], data)
    print("# inputs " + json.dumps(w.inputs))
    metrics: dict = {}
    samples: list = []
    setups: list = []
    rss: list = []  # peak_rss_mib after each untraced op
    hung = False
    try:
        for k in range(1 if args.trace else CONFIG["setup_repeats"]):
            if k:
                ray.shutdown()
            t0 = time.perf_counter()
            ray_start()
            ops.call(w.warmup)  # cold, checked like every op
            setups.append(time.perf_counter() - t0)
        start = time.perf_counter()
        untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
        while True:
            r = ops.call(w.op)
            if r:
                samples.append(r)
            rss.append(peak_rss_mib())
            if time.perf_counter() >= untraced_until:
                break
        if args.trace:
            tr = workloads.Tracer(w.name)
            ok_iters = []
            while True:
                with tr.span("iteration"):
                    ok = ops.call(lambda: w.traced(tr) or True)
                if ok:
                    ok_iters.append(tr.iteration)
                tr.iteration += 1
                if time.perf_counter() >= start + args.seconds:
                    break
            import kernels

            kernel_ms = ops.call(lambda: kernels.run(
                args.seed, CONFIG["kernel_batch_docs"],
                CONFIG["kernel_score_docs"])) or {}
            metrics = layer_metrics(w, tr, ok_iters, samples, kernel_ms)
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            with open(os.path.join(
                    WORK, "traces", f"{w.name}-seed{args.seed}.json"), "w") as f:
                json.dump({"workload": w.name, "seed": args.seed,
                           "inputs": w.inputs, "spans": tr.spans,
                           "metrics": metrics}, f)
        else:
            build_s = median([s["build_s"] for s in samples])
            metrics = {
                "setup_s": {"value": median(setups), "unit": "s"},
                "build_s": {"value": build_s, "unit": "s"},
                "docs_per_s": {"value": w.inputs["docs"] / build_s
                               if build_s else 0.0, "unit": "1/s"},
                "peak_rss_mib": {"value": median(rss), "unit": "MiB"},
            }
    except Hung:
        hung = True
    print(f"# samples {len(samples)} build_s "
          + json.dumps([round(s["build_s"], 4) for s in samples]))
    result = {"correct": ops.failed == 0 and not hung,
              "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    ray.shutdown()
    cleanup()
    print(json.dumps(result), flush=True)
    if hung:  # the stuck op's thread can never be joined
        os._exit(0)
    return 0


def smoke(args) -> int:
    """Every workload once untraced and once traced at tiny size, plus
    the kernels; exit 1 on any failure."""
    import kernels
    import ray
    import workloads

    ops = Ops(CONFIG["op_timeout_s"])
    data = os.path.join(WORK, f"data-{os.getpid()}")
    ray_start()
    try:
        for name, size in CONFIG["smoke"].items():
            w = workloads.WORKLOADS[name](args.seed, size, data)
            before = ops.failed
            ops.call(w.warmup)
            ops.call(w.op)
            ops.call(lambda: w.traced(workloads.Tracer(name)))
            print(f"# smoke {name}: {'ok' if ops.failed == before else 'FAILED'}"
                  f" inputs {json.dumps(w.inputs)}")
        before = ops.failed
        ops.call(lambda: kernels.run(args.seed, 50, 10, repeats=1))
        print(f"# smoke kernels: {'ok' if ops.failed == before else 'FAILED'}")
    except Hung:
        pass
    ray.shutdown()
    cleanup()
    print(json.dumps({"smoke_ok": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed}), flush=True)
    return 0 if ops.failed == 0 else 1


def cleanup() -> None:
    """Remove everything under .pbw/ except the span traces."""
    if os.path.isdir(WORK):
        for name in os.listdir(WORK):
            if name != "traces":
                path = os.path.join(WORK, name)
                if os.path.isdir(path) and not os.path.islink(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": CONFIG["run_seconds"],
        "workloads": [{"name": n, "why": why} for n, why in WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def _reap_all(grace_s: float = 5.0) -> None:
    """Wait for every descendant to end.  As a child subreaper this
    process inherits whatever Ray leaves behind; it asks those to stop,
    kills them after ``grace_s`` and reaps each one."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        kids = [pid for pid, (state, pp) in proc_table().items()
                if pp == os.getpid() and state != "Z"]
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in kids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def supervise() -> int:
    """Run this script in a child process pinned to ``pin_cpus`` CPUs and
    return its exit code once the child and every process it started
    have ended."""
    import ctypes

    PR_SET_PDEATHSIG, PR_SET_CHILD_SUBREAPER = 1, 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:CONFIG["pin_cpus"]])
    env = dict(os.environ, PERFBENCH_CHILD="1")
    child = subprocess.Popen(  # the child dies with this process
        [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env=env,
        preexec_fn=lambda: libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0))

    def stop(signum, _frame):
        child.kill()
        child.wait()
        _reap_all(grace_s=0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    code = child.wait()
    _reap_all()
    return code if code >= 0 else 128 - code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(CONFIG["workloads"]))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=CONFIG["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args()
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if not os.path.isfile(os.path.join(ROOT, "rex_ray", "__init__.py")):
        print("rex_ray not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not args.smoke and not args.workload:
        p.error("--workload is required")
    if not os.environ.get("PERFBENCH_CHILD"):
        return supervise()
    # no usage reporting or metrics export: fewer background wakeups
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ.setdefault("RAY_enable_metrics_collection", "0")
    # Ray workers import the repo and the benchmark modules by name
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [x for x in [os.environ.get("PYTHONPATH")] if x])
    sys.path[:0] = [ROOT, HERE]
    return smoke(args) if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
