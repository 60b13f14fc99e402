"""Benchmark entry point: one workload, one seed, one measured run.

Usage:
    python3 perfbench/run.py --workload score --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run generates the workload's inputs
from ``--seed`` (untimed), then starts fresh worker processes
(``worker.py``), one job sequence each, until ``--seconds`` have passed.
Every worker checks its outputs. With ``--trace 0`` the last line of
stdout carries the end-to-end metrics (medians over the iterations); with
``--trace 1`` traced and untraced iterations alternate and the last line
carries the per-layer metrics. Metric names and units come from
``BENCHMARK.json``; ``layers.json`` says which end-to-end metric each
per-layer metric should move, on which workload.

Work files go to ``.perfbench_work/`` in the checkout. The run exits
nonzero without a result line when the checkout has no ``src/qtokens``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from probe import at_reference_speed, host_probe  # noqa: E402

MIN_ITERATIONS = 3
# No new iteration starts after RUN_CAP_S, and every worker is stopped by
# RUN_LIMIT_S after the run began, so a run ends within 180 s.
RUN_CAP_S = 140.0
RUN_LIMIT_S = 170.0


def run_worker(workload: str, work: str, run_id: str, spans: bool, timeout_s: float) -> dict:
    """One job sequence in a fresh process; returns its result or an error."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--inputs", os.path.join(work, "inputs"), "--out", out, "--result", result_path]
    if spans:
        cmd += ["--spans", os.path.join(work, "spans.jsonl"), "--run-id", run_id]
    spawned = time.monotonic()
    # Own session, so a timeout can stop the worker and the scorer peer it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"worker timed out after {timeout_s:.0f}s"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = err.decode("utf-8", "replace").strip().splitlines()[-5:]
        return {"error": f"worker exited with {proc.returncode}: {' | '.join(tail)}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = spans
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def check_digests(workload: str, seed: int, digests: set[str]) -> tuple[bool, str]:
    """Same inputs must give the same outputs in every iteration and every run
    made in this checkout (traced or not)."""
    if len(digests) != 1:
        return False, f"{len(digests)} distinct output digests across iterations"
    digest = next(iter(digests))
    path = os.path.join(WORK, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    key = f"{workload}:{seed}"
    if known.setdefault(key, digest) != digest:
        return False, f"digest {digest[:12]} differs from an earlier run ({known[key][:12]})"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True, digest[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(gen.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "qtokens", "__init__.py")):
        print(f"error: no qtokens sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)

    began = time.monotonic()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    truth = gen.generate(args.workload, args.seed, os.path.join(work, "inputs"))

    probe_start = host_probe()
    started = time.monotonic()
    results: list[dict] = []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        timeout_s = RUN_LIMIT_S - (time.monotonic() - began)
        run_id = f"{args.workload}-{args.seed}-{len(results)}"
        results.append(run_worker(args.workload, work, run_id, traced, timeout_s))
        elapsed = time.monotonic() - started
        done = [r for r in results if "error" not in r]
        enough = all(sum(1 for r in done if r["traced"] == t) >= MIN_ITERATIONS
                     for t in ({False, True} if args.trace else {False}))
        if (elapsed >= args.seconds and enough) or time.monotonic() - began >= RUN_CAP_S:
            break
    probe_end = host_probe()
    shutil.rmtree(os.path.join(work, "inputs"), ignore_errors=True)
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)

    attempted = failed = 0
    problems = []
    for r in results:
        if "error" in r:
            attempted += 1
            failed += 1
            problems.append(r["error"])
            continue
        bad = [j["name"] for j in r["jobs"] if not j["ok"]]
        bad += [f"{c['name']} ({c['detail']})" for c in r["checks"] if not c["ok"]]
        attempted += len(r["jobs"]) + len(r["checks"]) + r["windows"]["attempted"]
        failed += len(bad) + r["windows"]["failed"]
        problems.extend(bad)
    ok_runs = [r for r in results if "error" not in r]
    if ok_runs:
        same, detail = check_digests(args.workload, args.seed, {r["digest"] for r in ok_runs})
        attempted += 1
        if not same:
            failed += 1
            problems.append(detail)

    for r in ok_runs:
        r["setup_ref_s"] = at_reference_speed(r["setup_s"], r["probe_s"])
        r["job_ref_s"] = at_reference_speed(r["job_s"], r["probe_s"], r["fixed_wait_s"])
    plain = [r for r in ok_runs if not r["traced"]]
    traced = [r for r in ok_runs if r["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sizes": truth["sizes"], "iterations": len(results),
        "host.probe_s": {"start": probe_start, "end": probe_end},
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:20],
        "per_iteration": [
            {key: r[key] for key in ("traced", "probe_s", "setup_s", "job_s", "fixed_wait_s")}
            for r in ok_runs],
    }
    # The end-to-end times at reference host speed, and as measured.
    series = {
        "setup_s": [r["setup_ref_s"] for r in plain],
        "job_s": [r["job_ref_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "raw_setup_s": [r["setup_s"] for r in plain],
        "raw_job_s": [r["job_s"] for r in plain],
    }
    for name, values in series.items():
        if values:
            q1, median, q3 = quartiles(values)
            record[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    # Throughput at the stated input size, for the workloads where it applies.
    for count, name in (("tokens", "tokens_per_s"), ("fits", "fits_per_s"),
                        ("queries", "queries_per_s")):
        values = [r["counts"][count] / r["job_ref_s"] for r in plain if count in r["counts"]]
        if values:
            record[name] = statistics.median(values)

    metrics = {}
    if not args.trace:
        for m in spec["end_to_end"]:
            values = series[m["name"]]
            metrics[m["name"]] = {"value": statistics.median(values) if values else None,
                                  "unit": m["unit"]}
    else:
        rtt = [v for r in traced for v in r["rtt_ms"]]
        pooled = {
            "syntheticity.rtt_p50_ms": percentile(rtt, 0.50),
            "syntheticity.rtt_p99_ms": percentile(rtt, 0.99),
            "syntheticity.rtt_samples": len(rtt),
            "host.probe_s": (probe_start + probe_end) / 2,
            "trace.overhead_s": (
                statistics.median(r["job_ref_s"] for r in traced)
                - statistics.median(r["job_ref_s"] for r in plain) if traced and plain else 0.0),
        }
        missing = sorted({name for r in traced for name in r["missing"]})
        for m in spec["per_layer"]:
            name = m["name"]
            if name in pooled:
                value = pooled[name]
            else:
                values = [r["layers"][name] for r in traced if name in r["layers"]]
                if not values:
                    missing.append(name)
                value = statistics.median(values) if values else 0.0
            metrics[name] = {"value": value, "unit": m["unit"]}
        record["missing"] = missing
        record["self_s"] = {
            name: statistics.median(r["span_summary"].get(name, {}).get("self_s", 0.0)
                                    for r in traced)
            for name in sorted({name for r in traced for name in r["span_summary"]})}
        record["traced_job_s"] = [r["job_ref_s"] for r in traced]
        record["untraced_job_s"] = [r["job_ref_s"] for r in plain]

    print(json.dumps({"record": record}))
    for name, entry in metrics.items():
        moves = layer_map.get(name)
        hint = f"  -> {moves['moves']} on {', '.join(moves['workloads'])}" if moves else ""
        print(f"{name} = {entry['value']} {entry['unit']}{hint}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
