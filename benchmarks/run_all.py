"""One entry point for the whole benchmark suite.

Discovers every ``bench_*.py`` in this directory and runs each in its
native mode:

- plain scripts (those with a ``__main__`` guard — the engine, shard and
  session benches) run as ``python bench_X.py [--quick]``;
- pytest-benchmark modules run as ``python -m pytest bench_X.py -q``
  (they use ``benchmark.pedantic`` with fixed rounds, so there is no
  separate quick mode to pass).

Besides the human-readable log, ``--json`` (or always, with
``--output``) emits a machine-readable ``BENCH_results.json``::

    {
      "schema": 1,
      "machine": {"platform": ..., "python": ..., "cpus": ...},
      "quick": true,
      "elapsed": 123.4,
      "ok": true,
      "benches": [
        {"name": "bench_checker_engine", "mode": "script",
         "ok": true, "elapsed": 1.23, "ratios": [16.9, 23.8, 10.2]},
        ...
      ]
    }

``ratios`` collects every ``<number>x`` figure printed by a bench (the
speedup/scaling headlines), so CI artifacts track the performance
trajectory without parsing free text.  Exit code 0 iff every bench
passed — a failed cross-validation inside any bench (e.g. the engine
disagreeing with the naive reference) fails the whole run.

``--compare BASELINE.json`` additionally diffs the fresh wall times
against a previously committed artifact: every *ratio-bearing* bench
(one that printed at least one ``<number>x`` figure — the perf-path
benches) whose fresh elapsed exceeds ``2x`` its baseline elapsed is a
regression and fails the run.  Benches absent from the baseline are
reported but never fail (new benches land before their baseline does).

Usage::

    python benchmarks/run_all.py --quick            # CI smoke
    python benchmarks/run_all.py --json             # print the JSON too
    python benchmarks/run_all.py --output results.json
    python benchmarks/run_all.py --quick --compare BENCH_results.json
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Matches speedup/scaling figures like ``16.9x`` in bench output.
#: Only measurement lines count — assertion-threshold lines like
#: ``speedup >= 10x: OK`` would otherwise pollute the trajectory data.
_RATIO = re.compile(r"\b(\d+(?:\.\d+)?)x\b")
_THRESHOLD_LINE = re.compile(r">=\s*\d+(?:\.\d+)?x")

#: Default name of the machine-readable artifact.
DEFAULT_OUTPUT = "BENCH_results.json"

#: ``--compare`` fails when a ratio-bearing bench's fresh wall time
#: exceeds this multiple of its baseline wall time.
REGRESSION_FACTOR = 2.0


def compare_results(document, baseline):
    """Diff fresh wall times against a baseline document.

    Returns ``(lines, regressions)``: human-readable diff lines for
    every fresh bench, and the names of ratio-bearing benches whose
    elapsed regressed by more than :data:`REGRESSION_FACTOR`.  Only
    benches that printed ratio figures participate in the gate — the
    pytest-benchmark modules carry their own timing discipline, and a
    bench new to this run has no baseline to regress from.
    """
    by_name = {b["name"]: b for b in baseline.get("benches", [])}
    lines = []
    regressions = []
    if baseline.get("quick") != document.get("quick"):
        lines.append(
            "  note: comparing %s run against %s baseline — wall times are "
            "not like-for-like"
            % (
                "quick" if document.get("quick") else "full",
                "quick" if baseline.get("quick") else "full",
            )
        )
    for bench in document["benches"]:
        name = bench["name"]
        base = by_name.get(name)
        if base is None:
            lines.append("  %-32s %7.2fs  (new bench, no baseline)" %
                         (name, bench["elapsed"]))
            continue
        factor = (
            bench["elapsed"] / base["elapsed"] if base["elapsed"] else float("inf")
        )
        gated = bool(bench["ratios"])
        # a ratio measured on a different CPU count is not comparable:
        # e.g. a sharding bench recorded on a 4-CPU machine reads as a
        # bogus slowdown when replayed on 1 CPU (process overhead, no
        # parallelism) — note it and skip the gate instead of failing
        base_cpus = base.get("cpus", baseline.get("machine", {}).get("cpus"))
        fresh_cpus = bench.get("cpus", document.get("machine", {}).get("cpus"))
        cpu_mismatch = (
            base_cpus is not None
            and fresh_cpus is not None
            and base_cpus != fresh_cpus
        )
        verdict = "ok"
        if gated and cpu_mismatch:
            verdict = (
                "skipped: baseline measured on %s CPU(s), this run on %s"
                % (base_cpus, fresh_cpus)
            )
        elif gated and factor > REGRESSION_FACTOR:
            verdict = "REGRESSION (> %.0fx)" % REGRESSION_FACTOR
            regressions.append(name)
        elif not gated:
            verdict = "informational"
        lines.append(
            "  %-32s %7.2fs vs %7.2fs  %5.2fx  %s"
            % (name, bench["elapsed"], base["elapsed"], factor, verdict)
        )
    return lines, regressions


def discover():
    """All bench modules, as ``(name, mode)`` sorted by name."""
    out = []
    for entry in sorted(os.listdir(HERE)):
        if not entry.startswith("bench_") or not entry.endswith(".py"):
            continue
        path = os.path.join(HERE, entry)
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        mode = "script" if '__name__ == "__main__"' in source else "pytest"
        out.append((entry, mode))
    return out


def command_for(entry, mode, quick):
    if mode == "script":
        cmd = [sys.executable, os.path.join(HERE, entry)]
        if quick:
            cmd.append("--quick")
        return cmd
    return [
        sys.executable, "-m", "pytest",
        os.path.join(HERE, entry), "-q", "-p", "no:cacheprovider",
    ]


def run_bench(entry, mode, quick, env, timeout):
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command_for(entry, mode, quick),
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=timeout,
            text=True,
        )
        output = proc.stdout
        ok = proc.returncode == 0
    except subprocess.TimeoutExpired as err:
        output = (err.stdout or "") + "\n[timed out after %ds]" % timeout
        ok = False
    elapsed = time.perf_counter() - started
    ratios = [
        float(m)
        for line in output.splitlines()
        if not _THRESHOLD_LINE.search(line)
        for m in _RATIO.findall(line)
    ]
    return {
        "name": entry[:-3],
        "mode": mode,
        "ok": ok,
        "elapsed": round(elapsed, 3),
        "ratios": ratios,
        # scaling ratios (sharding) only mean
        # anything under the CPU count they were measured on; --compare
        # refuses to gate across a mismatch
        "cpus": os.cpu_count(),
        "tail": output.strip().splitlines()[-12:] if not ok else [],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="pass --quick to script benches (CI smoke)")
    parser.add_argument("--json", action="store_true",
                        help="print the JSON document to stdout as well")
    parser.add_argument("--output", default=os.path.join(ROOT, DEFAULT_OUTPUT),
                        help="where to write the JSON artifact "
                        "(default: repo-root BENCH_results.json)")
    parser.add_argument("--timeout", type=int, default=900,
                        help="per-bench timeout in seconds (default 900)")
    parser.add_argument("--only", action="append", default=[],
                        help="run only benches whose name contains this "
                        "substring (repeatable)")
    parser.add_argument("--compare", metavar="BASELINE.json",
                        help="diff fresh wall times against this committed "
                        "artifact; a ratio-bearing bench slower than %.0fx "
                        "its baseline fails the run" % REGRESSION_FACTOR)
    args = parser.parse_args(argv)

    baseline = None
    if args.compare:
        # load before running: --output may point at the same file
        try:
            with open(args.compare, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except FileNotFoundError:
            print(
                "compare baseline %s not found; running ungated "
                "(commit a full-mode run to arm the regression gate)"
                % args.compare
            )

    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )

    benches = discover()
    if args.only:
        benches = [
            (entry, mode) for entry, mode in benches
            if any(sub in entry for sub in args.only)
        ]
    started = time.perf_counter()
    results = []
    for entry, mode in benches:
        print("== %-32s (%s)" % (entry, mode), flush=True)
        result = run_bench(entry, mode, args.quick, env, args.timeout)
        status = "ok" if result["ok"] else "FAIL"
        print("   %-4s %7.2fs  ratios: %s"
              % (status, result["elapsed"],
                 ", ".join("%.1fx" % r for r in result["ratios"]) or "-"),
              flush=True)
        if not result["ok"]:
            for line in result["tail"]:
                print("   | %s" % line)
        results.append(result)

    document = {
        "schema": 1,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "quick": args.quick,
        "elapsed": round(time.perf_counter() - started, 3),
        "ok": all(r["ok"] for r in results),
        "benches": results,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\nwrote %s (%d benches, %s)"
          % (args.output, len(results), "ok" if document["ok"] else "FAILURES"))
    if args.json:
        print(json.dumps(document, sort_keys=True))
    regressions = []
    if baseline is not None:
        lines, regressions = compare_results(document, baseline)
        print("\ncompare vs %s:" % args.compare)
        for line in lines:
            print(line)
        if regressions:
            print("wall-time regressions: %s" % ", ".join(regressions))
    return 0 if document["ok"] and not regressions else 1


if __name__ == "__main__":
    sys.exit(main())
