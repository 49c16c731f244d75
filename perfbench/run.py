"""The repository benchmark: two closed-loop workloads over the verifier.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hyper-sat --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run measures one workload for ``--seconds`` seconds with one client
in one process (serve-mix adds one worker process), checks every result
against known answers (``reference.py``), prints a row of metrics, and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures
the workload untraced, then again with the layer entry points wrapped
(``tracing.py``), and reports per-layer self time and counts plus the
tracing overhead; spans are written to ``.perfbench_out/``.
``--workload all`` runs every workload in its own process and prints one
row per workload.  The exit status is non-zero when any result is wrong.

A run is a sequence of slices that each repeat the same work (a corpus
pass, or one daemon's life) after their own cold set-ups.  The timing
metrics and ``setup_s`` (a median) use, for each task, request and
set-up of that work, the fastest tenth of its repetitions in the run.
On a shared machine other tenants only ever slow the program down, at
times for most of a run, so the fastest repetitions are the ones that
repeat from run to run, as in ``timeit``'s advice to take the minimum; a
change that makes the program slower slows them just the same.  A rare
stall that hits one repetition of a task and not the others (an old-
generation garbage collection: under 1% of hyper-sat's time on a 2-CPU
machine) is left out.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("hyper-sat", "serve-mix")

#: Share of the repetitions of each task, request or set-up in a run,
#: fastest first, that the timing metrics and ``setup_s`` use.
FASTEST_SHARE = 0.1

END_TO_END = (
    ("tasks_per_s", "tasks/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("correct_ratio", "ratio"),
    ("decided_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer self time, in ms per completed task.
LAYER_TIMES = (
    ("lang.parse_ms", "lang.parse"),
    ("assertions.parse_ms", "assertions.parse"),
    ("logic.wp_ms", "logic.wp"),
    ("solver.ground_ms", "solver.ground"),
    ("solver.cnf_ms", "solver.cnf"),
    ("solver.solve_ms", "solver.solve"),
    ("symbolic.encode_ms", "symbolic.encode"),
    ("checker.exec_ms", "checker.exec"),
    ("checker.scan_ms", "checker.scan"),
    ("codec.encode_ms", "codec.encode"),
    ("codec.decode_ms", "codec.decode"),
    ("serve.key_ms", "serve.key"),
    ("serve.store_get_ms", "serve.store_get"),
    ("serve.store_put_ms", "serve.store_put"),
)

BACKENDS = ("syntactic-wp", "loop", "symbolic", "exhaustive")

#: Layers a store hit may legitimately spend time in.
SERVE_LAYERS = ("codec", "serve", "lang", "assertions")

#: name -> unit of every per-layer metric, in report order.
PER_LAYER = dict(
    [(name, "ms/task") for name, _ in LAYER_TIMES]
    + [
        ("solver.ground_calls", "1/task"),
        ("solver.solve_calls", "1/task"),
        ("assertions.entail_sat", "1/task"),
        ("assertions.entail_hit_ratio", "ratio"),
        ("compile.hit_ratio", "ratio"),
        ("compile.fallbacks", "1/task"),
        ("checker.image_hit_ratio", "ratio"),
        ("checker.candidates", "1/task"),
        ("checker.pre_reject_ratio", "ratio"),
    ]
    + [("api.backend.%s_ms" % b, "ms/task") for b in BACKENDS]
    + [("api.decided_by.%s" % b, "ratio") for b in BACKENDS]
    + [
        ("serve.store_hit_ratio", "ratio"),
        ("serve.service_ms", "ms/task"),
        ("serve.overhead_ms", "ms/task"),
        ("serve.hit_verify_ms", "ms/task"),
        ("serve.hit_layer_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def ratio(part, whole):
    return part / whole if whole else 0.0


def tail(latencies):
    """``(value, percentile)``: the highest percentile that still has at
    least 10 samples beyond it (the 11th largest sample)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


#: This process's resident memory (kB) each time it forked.
_FORK_RSS = []


def _rss_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb():
    """Peak resident memory of this process plus the growth of its
    largest waited-for child (the serve worker), in MB.

    A forked child starts out counting the pages it shares with this
    process, so this process's resident size at its last fork (its
    largest, as it only grows while the window runs) is taken off the
    child's peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children:
        children = max(0, children - max(_FORK_RSS, default=0))
    return (own + children) / 1024.0


def fastest(window):
    """``(latencies, setups, kept)``: at every position of the work the
    window's complete slices repeat (a task of the corpus pass or a
    request of the daemon's stream, and each set-up before it), the
    fastest :data:`FASTEST_SHARE` of its repetitions, ``kept`` of them;
    everything when no slice completed."""
    latencies = window.latencies
    slices = window.slices
    if not slices:
        return list(latencies), list(window.setups), 1
    kept = max(1, round(FASTEST_SHARE * len(slices)))
    width = min(end - start for start, end, _ in slices)
    return (
        [
            seconds
            for offset in range(width)
            for seconds in sorted(latencies[start + offset] for start, _, _ in slices)[:kept]
        ],
        [
            seconds
            for column in zip(*(setups for _, _, setups in slices))
            for seconds in sorted(column)[:kept]
        ],
        kept,
    )


def rate(latencies):
    """Tasks per second of a closed loop with these latencies."""
    return len(latencies) / sum(latencies)


def measure(workload, seconds):
    """One untraced run → ``(metrics, attempted, failed, correct, notes)``."""
    workload.warm_up()
    window = workload.run(seconds)
    rss = peak_rss_mb()
    correct = workload.grade(window)

    latencies, setups, kept = fastest(window)
    tail_s, percentile = tail(latencies)
    attempted = window.attempted
    metrics = {
        "tasks_per_s": rate(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "correct_ratio": ratio(correct, attempted),
        "decided_ratio": ratio(window.decided, attempted),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    notes = [
        "timing metrics use %d of %d samples (the fastest %d of %d repetitions "
        "of each); over all of them: %.6g tasks/s, p50 %.6g ms"
        % (
            len(latencies),
            window.done,
            kept,
            len(window.slices),
            window.done / window.elapsed,
            1e3 * statistics.median(window.latencies),
        ),
        "latency_tail_ms is p%.2f of %d samples" % (percentile, len(latencies)),
        "setup_s is the median of %d cold set-ups" % len(setups),
    ]
    return metrics, attempted, window.failed, correct, notes


def layer_metrics(window, summary, hits, tracer_overhead):
    """Per-layer metrics of one traced window (see :data:`PER_LAYER`).

    ``summary`` is the merged trace of every process, ``hits`` the
    parent's trace restricted to store-hit requests.
    """
    done = window.done
    self_time = summary["self"]
    calls = summary["calls"]
    counts = summary["counts"]
    caches = summary["caches"]
    metrics = {
        name: 1e3 * ratio(self_time.get(layer, 0.0), done)
        for name, layer in LAYER_TIMES
    }
    metrics.update(
        {
            "solver.ground_calls": ratio(calls.get("solver.ground", 0), done),
            "solver.solve_calls": ratio(calls.get("solver.solve", 0), done),
            "assertions.entail_sat": ratio(caches.get("method_sat", 0), done),
            "assertions.entail_hit_ratio": ratio(
                caches.get("entailment_hits", 0),
                caches.get("entailment_hits", 0) + caches.get("entailment_misses", 0),
            ),
            "compile.hit_ratio": ratio(
                caches.get("compile_hits", 0),
                caches.get("compile_hits", 0) + caches.get("compile_misses", 0),
            ),
            "compile.fallbacks": ratio(caches.get("compile_fallbacks", 0), done),
            "checker.image_hit_ratio": ratio(
                caches.get("image_mask_hits", 0),
                caches.get("image_mask_hits", 0) + caches.get("image_mask_misses", 0),
            ),
            "checker.candidates": ratio(counts.get("checker.candidates", 0), done),
            "checker.pre_reject_ratio": ratio(
                counts.get("checker.pre_rejected", 0),
                counts.get("checker.candidates", 0),
            ),
        }
    )
    for backend in BACKENDS:
        metrics["api.backend.%s_ms" % backend] = 1e3 * ratio(
            window.backend_time.get(backend, 0.0), done
        )
        metrics["api.decided_by.%s" % backend] = ratio(
            window.decided_by.get(backend, 0), done
        )

    service = window.service
    hit_ids = set(window.hits)
    store = window.store
    hit_latency = sum(window.latencies[i] for i in hit_ids)
    hit_self = hits["self"]
    serve_layers = sum(
        t for layer, t in hit_self.items() if layer.split(".")[0] in SERVE_LAYERS
    )
    metrics.update(
        {
            "serve.store_hit_ratio": ratio(
                store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0)
            ),
            "serve.service_ms": 1e3 * ratio(service, done),
            "serve.overhead_ms": 1e3 * ratio(sum(window.latencies) - service, done)
            if store
            else 0.0,
            "serve.hit_verify_ms": 1e3
            * ratio(sum(hit_self.values()) - serve_layers, len(hit_ids)),
            "serve.hit_layer_share": ratio(serve_layers, hit_latency),
            "trace.overhead_ratio": tracer_overhead,
        }
    )
    return metrics


def trace(workload, name, seed, seconds):
    """One traced run → ``(metrics, attempted, failed, correct, notes)``."""
    import tracing

    out_dir = os.path.join(OUT, "%s-seed%d-pid%d" % (name, seed, os.getpid()))
    shutil.rmtree(out_dir, ignore_errors=True)

    workload.warm_up()
    untraced = workload.run(seconds)
    correct = workload.grade(untraced)

    tracer = tracing.install(out_dir)
    window = workload.run(seconds, tracer)
    tracer.request = None
    correct += workload.grade(window)

    tracer.write("parent.spans.jsonl")
    summary = tracing.merge([tracer.summary()] + tracer.worker_summaries())
    hit_ids = set(window.hits)
    hits = tracer.summary(requests=hit_ids)
    overhead = ratio(rate(fastest(untraced)[0]), rate(fastest(window)[0]))
    metrics = layer_metrics(window, summary, hits, overhead)

    done = window.done
    notes = ["wrapped %s at %s" % site for site in tracer.sites]
    ranked = sorted(summary["self"].items(), key=lambda item: -item[1])
    notes.append(
        "self time per task: "
        + ", ".join("%s %.3f ms" % (layer, 1e3 * t / done) for layer, t in ranked)
    )
    if hit_ids:
        notes.append(
            "store hits (%d): " % len(hit_ids)
            + ", ".join(
                "%s %.3f ms" % (layer, 1e3 * t / len(hit_ids))
                for layer, t in sorted(hits["self"].items(), key=lambda item: -item[1])
            )
        )
    notes.append("spans written to %s" % os.path.relpath(out_dir, ROOT))
    attempted = untraced.attempted + window.attempted
    failed = untraced.failed + window.failed
    return metrics, attempted, failed, correct, notes


def run_one(args):
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    os.register_at_fork(before=lambda: _FORK_RSS.append(_rss_kb()))
    workload = workloads.make(args.workload, args.seed, SCRATCH)
    if args.trace:
        metrics, attempted, failed, correct, notes = trace(
            workload, args.workload, args.seed, args.seconds
        )
        units = PER_LAYER
    else:
        metrics, attempted, failed, correct, notes = measure(workload, args.seconds)
        units = dict(END_TO_END)
    print(
        "%s (seed %d): " % (args.workload, args.seed)
        + "  ".join("%s=%.6g %s" % (n, metrics[n], u) for n, u in units.items())
    )
    for note in notes:
        print("  " + note)
    ok = attempted > 0 and correct == attempted
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if ok else 1


def run_all(args):
    """Every workload in its own process; one row per workload."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stderr)
            rows.append("%-12s failed (exit %d)" % (name, proc.returncode))
            continue
        rows.append(
            "%-12s " % name
            + "  ".join(
                "%s=%.6g %s" % (n, m["value"], m["unit"])
                for n, m in result["metrics"].items()
            )
        )
    print("\n".join(rows))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no verifier sources at %s\n" % SRC)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
