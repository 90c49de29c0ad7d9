#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 40 --trace 0

builds the library, laca_serve and the benchmark driver from source (Release,
into .bench_build/perfbench/), generates the datasets once into TNAM-less
snapshot directories there, runs the workload, checks every answer, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
Each run also writes its full record (host fingerprint, calibration loop
before and after, steal delta, raw per-phase figures) to
.bench_build/perfbench/records/.

Extra modes (not used by the metric contract):
    --repeat N   run the workload N times (seeds seed..seed+N-1) and print
                 each metric's median, quartiles and spread, plus the share
                 of latency samples between each reported percentile and
                 the nearest gap between latency modes
    --smoke      run the parser unit tests, then all three workloads briefly
                 on cora-sim, and check them

See perfbench/README.md for the workloads, metrics and noise findings.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(WORK, "build")
DATA = os.path.join(WORK, "data")
RECORDS = os.path.join(WORK, "records")
DRIVER = os.path.join(BUILD, "perfbench_driver")

END_TO_END = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("goodput_frac", "1"),
    ("sat_qps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("ok_frac", "1"),
    ("precision", "1"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("diffusion.step1_ms.p50", "ms"),
    ("diffusion.step1_ms.tail", "ms"),
    ("diffusion.push_work", "count"),
    ("diffusion.supp_frac", "1"),
    ("diffusion.ns_per_push", "ns"),
    ("core.bdd_ms", "ms"),
    ("core.step3_push_work", "count"),
    ("core.extract_ms", "ms"),
    ("core.pad_frac", "1"),
    ("batch.efficiency", "1"),
    ("attr.tnam_build_ms", "ms"),
    ("data.load_ms", "ms"),
    ("serving_engine.queue_ms.p50", "ms"),
    ("serving_engine.queue_ms.tail", "ms"),
    ("serving_engine.service_ms.p50", "ms"),
    ("serving_engine.alloc_events_delta", "count"),
    ("serving_engine.shed", "count"),
    ("serving_engine.cancelled", "count"),
    ("result_cache.hit_frac", "1"),
    ("result_cache.pi_hit_frac", "1"),
    ("result_cache.coalesced_frac", "1"),
    ("result_cache.evictions", "count"),
    ("result_cache.bytes", "B"),
    ("session.wait_ms.p50", "ms"),
    ("session.wait_ms.tail", "ms"),
    ("protocol.parse_us", "us"),
    ("protocol.format_us", "us"),
    ("laca_serve.cpu_busy_frac", "1"),
    ("laca_serve.threads", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.cpu_frac", "1"),
    ("check.compared", "count"),
    ("check.mismatches", "count"),
    ("replay.total_ms", "ms"),
    ("replay.stage_frac", "1"),
    ("trace.overhead_frac", "1"),
]

# Shared server flags: the shipped laca_serve defaults, set explicitly.
# --threads=3 (nproc - 1 on the 4-vCPU reference host) keeps a core for the
# single-threaded load generator.
SERVE_FLAGS = {
    "threads": 3, "k": 32, "alpha": "0.8", "eps": "1e-6",
    "cache": "two-tier", "cache-bytes": 64 << 20,
}


def workload_flags(name, seconds):
    """(driver subcommand, dataset, flags) of one workload. Every phase
    scales with --seconds; open-loop time and closed-loop work split it in
    half. Settings every workload shares (p95 tail, 3 timed set-ups, 16
    reference checks, 3 interleaved rounds, 8 closed-loop connections) are
    constants of perfbench_driver."""
    half = seconds / 2.0
    if name == "serve-cold":
        # Poisson open loop at 30 q/s, ~45% of the measured 3-worker
        # capacity (66-78 q/s), over one pipelined connection; then a closed
        # loop on 8 connections over a fixed request list sized from a
        # nominal 75 q/s (fixed work, not the measured capacity).
        return "serve", "arxiv-sim", dict(SERVE_FLAGS, **{
            "traffic": "cold", "rate": 30, "open-seconds": half,
            "open-conns": 1, "closed-requests": round(75 * half),
            "warmup-requests": 12, "warmup-chunk": 12, "limit-ms": 250,
            "replay-requests": 120})
    if name == "serve-zipf":
        # Zipf(1) over 768 seeds x 3 sizes. A 600-request warm-up, then a
        # 125 q/s open loop over 16 connections (~45% of the 3 workers: about
        # a quarter of its requests compute) and a closed loop over the
        # stream's continuation sized from a nominal 420 q/s. The pool keeps
        # the open loop's hit share near 0.76, so p50 sits inside the hit
        # mode and p95 inside the compute mode, both well away from the gap.
        return "serve", "arxiv-sim", dict(SERVE_FLAGS, **{
            "traffic": "zipf", "pool": 768, "zipf-s": "1.0", "rate": 125,
            "open-seconds": half, "open-conns": 16,
            "closed-requests": round(420 * half),
            "warmup-requests": 600, "warmup-chunk": 200, "limit-ms": 250,
            "replay-requests": 120})
    if name == "batch-local":
        # Back-to-back BatchCluster calls of 64 distinct seeds: the batch
        # bench_ext_parallel_scaling hands BatchCluster by default. 5 * S
        # batches: at S = 40, 10 of the 200 lie beyond p95.
        return "batch", "amazon2m-sim", {
            "threads": 3, "k": 32, "alpha": "0.8", "eps": "1e-5",
            "batch-size": 64, "batches": max(2, round(seconds * 5)),
            "limit-ms": 300, "replay-requests": 256}
    raise SystemExit(f"unknown workload '{name}'")


WORKLOADS = ("serve-cold", "serve-zipf", "batch-local")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    env.pop("LACA_DATASET_CACHE", None)
    env.pop("LACA_BENCH_SEEDS", None)
    return env


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"repository sources not found under {ROOT}; cannot build")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    logf = os.path.join(WORK, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(logf, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed")
                sys.exit(2)


def dataset_dir(name):
    """Generates `name` once, untimed, in its own process."""
    path = os.path.join(DATA, name)
    if not os.path.isfile(os.path.join(path, "manifest.laca")):
        os.makedirs(DATA, exist_ok=True)
        log(f"generating {name}")
        subprocess.run([DRIVER, "gen", f"--dataset={name}", f"--out={path}"],
                       check=True, stdout=subprocess.DEVNULL, env=clean_env())
    return path


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def calibrate(seconds=2.0):
    out = subprocess.run(
        [DRIVER, "calibrate", f"--data={dataset_dir('cora-sim')}",
         f"--seconds={seconds}"], check=True, capture_output=True, text=True,
        env=clean_env()).stdout
    return json.loads(out.strip().splitlines()[-1])


def run_once(workload, seed, seconds, trace, dataset=None):
    """One run; returns (final line dict, full record dict)."""
    kind, default_ds, flags = workload_flags(workload, seconds)
    data = dataset_dir(dataset or default_ds)
    os.makedirs(RECORDS, exist_ok=True)
    stem = os.path.join(RECORDS, f"{workload}-seed{seed}-trace{trace}")
    args = [DRIVER, kind, f"--data={data}", f"--seed={seed}",
            f"--trace={trace}",
            f"--spans={stem}.spans.jsonl" if trace else "--spans="]
    args += [f"--{k}={v}" for k, v in flags.items()]
    steal0 = steal_ticks()
    cal0 = calibrate()
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True,
                          env=clean_env())
    wall = time.monotonic() - t0
    cal1 = calibrate()
    steal1 = steal_ticks()
    sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0:
        log(f"driver failed with exit code {proc.returncode}")
        sys.exit(3)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    chosen = END_TO_END if trace == 0 else PER_LAYER
    values = res["end_to_end"] if trace == 0 else res["per_layer"]
    metrics = {}
    for name, unit in chosen:
        if name not in values or values[name] is None:
            log(f"driver did not report {name}")
            sys.exit(3)
        metrics[name] = {"value": values[name], "unit": unit}
    final = {"correct": bool(res["correct"]),
             "attempted": int(res["attempted"]),
             "failed": int(res["failed"]), "metrics": metrics}
    record = dict(res, workload=workload, seed=seed, seconds=seconds,
                  trace=trace, dataset=dataset or default_ds,
                  driver_wall_s=wall,
                  witness={"calibration_before": cal0,
                           "calibration_after": cal1,
                           "steal_ticks_delta": steal1 - steal0})
    with open(f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    return final, record


def mode_gaps(samples, ratio=2.0, max_inside=0.005, min_side=0.02):
    """Cumulative shares at which the sorted latencies cross a near-empty
    band: a stretch where latency grows by >= `ratio` while fewer than
    `max_inside` of the samples lie in it, with >= `min_side` of the
    samples on each side. Tick steps (40 -> 60 ms) are not gaps; a cache
    hit mode at 0.3 ms next to a compute mode at 40 ms is."""
    s = sorted(x for x in samples if x > 0)
    n = len(s)
    gaps = []
    j = 0
    for i in range(n):
        j = max(j, i + 1)
        while j < n and s[j] < ratio * s[i]:
            j += 1
        if j >= n:
            break
        if (j - i - 1) / n < max_inside and \
                min_side <= (i + 1) / n <= 1 - min_side:
            pos = round((i + 1) / n, 4)
            if not gaps or pos - gaps[-1] > max_inside:
                gaps.append(pos)
    return gaps


def self_check(workload, seed, seconds, repeat):
    """Steadiness self-check: N runs, spreads, and mode-gap distances."""
    runs = [run_once(workload, seed + i, seconds, 0) for i in range(repeat)]
    summary = {}
    print(f"{workload}: {repeat} runs of {seconds}s, seeds {seed}.."
          f"{seed + repeat - 1}")
    print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>10}{'range/med':>11}")
    for name, _ in END_TO_END:
        vals = [r[0]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_frac": spread, "range_frac": rng}
        print(f"{name:<16}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}"
              f"{spread:>10.3f}{rng:>11.3f}")
    tail_q = runs[0][1]["record"]["tail_pct"] / 100.0
    print(f"mode gaps (share of samples between percentile and nearest gap; "
          f"tail = p{tail_q * 100:g}):")
    worst = {}
    for final, rec in runs:
        gaps = mode_gaps(rec["latencies_ms"])
        for label, q in (("p50", 0.5), ("tail", tail_q)):
            dist = min((abs(q - g) for g in gaps), default=1.0)
            worst[label] = min(worst.get(label, 1.0), dist)
        print(f"  seed {rec['seed']}: gaps at "
              f"{[round(g, 3) for g in gaps] or 'none'}; "
              f"samples {len(rec['latencies_ms'])}")
    for label, dist in worst.items():
        print(f"  {label}: nearest gap {dist * 100:.1f} percentage points "
              f"of samples away (worst run)")
    summary["mode_gap_distance"] = worst
    summary["correct_all"] = all(r[0]["correct"] for r in runs)
    print(json.dumps({"workload": workload, "summary": summary}))


def smoke():
    """The parser unit tests, then all three workloads briefly on cora-sim,
    traced and untraced."""
    ok = subprocess.run([os.path.join(BUILD, "perfbench_lines_test")],
                        env=clean_env()).returncode == 0
    for w in WORKLOADS:
        for trace in (0, 1):
            final, _ = run_once(w, 1, 4, trace, dataset="cora-sim")
            good = final["correct"] and final["failed"] == 0
            ok = ok and good
            print(f"smoke {w} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({final['attempted']} requests)")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    build()
    if args.smoke:
        smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.repeat == 1:
        ap.error("--repeat needs at least 2 runs")
    if args.repeat > 0:
        self_check(args.workload, args.seed, args.seconds, args.repeat)
        return
    final, rec = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(f"perfbench: {args.workload} seed={args.seed} record: "
          f"{json.dumps(rec['record'])[:400]}")
    print(json.dumps(final))


if __name__ == "__main__":
    main()
