#!/usr/bin/env python3
"""StorM benchmark: tenant-visible I/O latency and host simulation speed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain_small --seed 1 --seconds 20 --trace 0

It builds perfbench/storm_bench, and the src/ tree it measures, under
.bench_build/. Then it runs the workload in separate processes, one
repetition each:

  * sample repetitions, one per sub-seed derived from --seed. Their
    simulated samples are pooled into the sim_* metrics.
  * check repetitions, which re-run a sub-seed already sampled. Each must
    reproduce that sample's telemetry fingerprint and every simulated
    statistic exactly.

Repetitions continue until the next one would overrun --seconds. There is
always at least one check. Every repetition must also pass its own
correctness checks: the shadow check on every read, no failed I/O, no
PostMark error, no lookahead violation, and a monitor that tracks every
file.

--trace 0 prints the end-to-end metrics. setup_s and peak_rss_mb are
medians over all repetitions; host_ios_per_s pools their I/Os and
measured host seconds. --trace 1 alternates untraced and traced
repetitions of one sub-seed. It prints the per-layer metrics of the last
traced repetition and the tracing overhead. Spans and telemetry stay in
.bench_build/perfbench-out/.

Human-readable lines go to stdout first. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only if every check passed.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "storm_bench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")

# Sample repetitions per run. The simulated work of one repetition is fixed
# in storm_bench.cpp. Together with one check they take about 12-16 s on a
# 4-core x86-64 host.
SAMPLES = {
    "chain_small": 4,
    "legacy_large": 3,
    "postmark_monitor": 4,
    "quorum_parallel": 3,
}
RUN_LIMIT_S = 170  # a run must end well inside the 180 s budget

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s"),
    ("host_ios_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_iops", "1/s"),
    ("sim_read_p50_ms", "ms"),
    ("sim_read_p99_ms", "ms"),
    ("sim_write_p50_ms", "ms"),
    ("sim_write_p99_ms", "ms"),
    ("sim_txn_per_s", "1/s"),
    ("sim_txn_p99_ms", "ms"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(os.cpu_count() or 1, 8))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            # Leave no half-configured tree behind for the next run.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0 or not os.path.exists(BINARY):
        raise BenchError("build failed")


def sub_seed(seed, index):
    return seed * 1000 + index


def run_rep(workload, seed, index, trace, deadline):
    """One repetition in its own process; returns its parsed result."""
    number = len(os.listdir(OUT_DIR)) if os.path.isdir(OUT_DIR) else 0
    out = os.path.join(OUT_DIR, f"rep{number}")
    os.makedirs(out)
    cmd = [BINARY, "--workload", workload, "--seed",
           str(sub_seed(seed, index)), "--out", out]
    if trace:
        cmd.append("--trace")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition")
    # Same clock as storm_bench's CLOCK_MONOTONIC first-I/O stamp, so
    # setup_s runs from process start to the first measured I/O.
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition timed out")
    wall_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - start_ns) / 1e9
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: no result (exit {proc.returncode})")
    if proc.stderr.strip():
        log(proc.stderr.strip())
    if proc.returncode != 0 and not rep["errors"]:
        rep["errors"].append(f"exit code {proc.returncode}")
    rep["index"] = index
    rep["wall_s"] = wall_s
    rep["setup_s"] = (rep["host"]["first_io_monotonic_ns"] - start_ns) / 1e9
    rep["out"] = out
    return rep


def schedule(workload, trace):
    """(sub-seed index, traced) of every repetition, and how many must run."""
    if trace:
        return (lambda i: (0, i % 2 == 1)), 2
    k = SAMPLES[workload]
    return (lambda i: (i % k, False)), k + 1


def repeat(workload, seed, seconds, trace):
    next_rep, minimum = schedule(workload, trace)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps = []
    while True:
        index, traced = next_rep(len(reps))
        if len(reps) >= minimum:
            # Stop when the next repetition would overrun --seconds.
            estimate = statistics.median(
                r["wall_s"] for r in reps if r["trace"] == traced)
            if time.monotonic() - start + estimate > seconds:
                break
        if reps and time.monotonic() + 2 * reps[-1]["wall_s"] > deadline:
            if len(reps) < minimum:
                raise BenchError("repetitions too slow for the run budget")
            break
        reps.append(run_rep(workload, seed, index, traced, deadline))
    return reps


def sim_summary(rep):
    """Everything a repetition reports on the simulated clock."""
    return {key: rep[key]
            for key in ("io", "sim", "txn", "shadow", "relay", "monitor")}


def check(reps):
    """Per-repetition correctness plus same-seed determinism."""
    problems = []
    first = {}
    checks = 0
    for i, rep in enumerate(reps):
        for err in rep["errors"]:
            problems.append(f"repetition {i}: {err}")
        if not rep["correct"] and not rep["errors"]:
            problems.append(f"repetition {i}: marked incorrect")
        base = first.setdefault(rep["index"], rep)
        if base is rep:
            continue
        checks += 1
        if rep["fingerprint"] != base["fingerprint"]:
            problems.append(f"repetition {i}: telemetry fingerprint "
                            f"{rep['fingerprint']} != {base['fingerprint']} "
                            "under the same seed")
        if sim_summary(rep) != sim_summary(base):
            problems.append(f"repetition {i}: simulated statistics differ "
                            "under the same seed")
    if checks == 0:
        problems.append("no repetition re-ran a seed")
    return problems


def attempted_failed(reps):
    attempted = sum(r["io"]["attempted"] for r in reps)
    failed = sum(r["io"]["failed"] + r["txn"]["errors"] for r in reps)
    return attempted, failed


def percentile(samples, p):
    """Nearest-rank percentile, as storm_bench computes it."""
    if not samples:
        return 0
    ordered = sorted(samples)
    rank = min(max(1, -(-len(ordered) * p // 100)), len(ordered))
    return ordered[int(rank) - 1]


def pooled(reps):
    """Samples and totals of the first repetition of every sub-seed."""
    seen = {}
    for rep in reps:
        seen.setdefault(rep["index"], rep)
    pool = {"read_ns": [], "write_ns": [], "txn_ns": [], "completed": 0,
            "sim_ns": 0, "txn_sim_s": 0.0, "sample_reps": len(seen)}
    for rep in seen.values():
        with open(os.path.join(rep["out"], "samples.json")) as f:
            samples = json.load(f)
        for key in ("read_ns", "write_ns", "txn_ns"):
            pool[key] += samples[key]
        pool["completed"] += rep["io"]["completed"]
        pool["sim_ns"] += rep["sim"]["measured_ns"]
        pool["txn_sim_s"] += rep["txn"]["sim_s"]
    return pool


def end_to_end(reps, pool):
    ms = 1e-6
    sim_s = pool["sim_ns"] / 1e9
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "host_ios_per_s": sum(r["io"]["completed"] for r in reps) / sum(
            r["host"]["measured_s"] for r in reps),
        "peak_rss_mb": statistics.median(
            r["host"]["peak_rss_kb"] / 1024 for r in reps),
        "sim_iops": pool["completed"] / sim_s,
        "sim_read_p50_ms": percentile(pool["read_ns"], 50) * ms,
        "sim_read_p99_ms": percentile(pool["read_ns"], 99) * ms,
        "sim_write_p50_ms": percentile(pool["write_ns"], 50) * ms,
        "sim_write_p99_ms": percentile(pool["write_ns"], 99) * ms,
    }
    # A transaction is the workload's own operation: one PostMark
    # transaction, or one fio request (which is one block I/O).
    if pool["txn_ns"]:
        values["sim_txn_per_s"] = len(pool["txn_ns"]) / pool["txn_sim_s"]
        values["sim_txn_p99_ms"] = percentile(pool["txn_ns"], 99) * ms
    else:
        values["sim_txn_per_s"] = values["sim_iops"]
        values["sim_txn_p99_ms"] = percentile(
            pool["read_ns"] + pool["write_ns"], 99) * ms
    return values


def print_end_to_end(reps, pool, values):
    n = len(reps)
    sampled = f"{pool['sample_reps']} sub-seeds"
    txn_n = len(pool["txn_ns"]) or pool["completed"]
    basis = {
        "setup_s": f"median of {n} processes",
        "host_ios_per_s": f"{sum(r['io']['completed'] for r in reps)} I/Os"
                          f" / {sum(r['host']['measured_s'] for r in reps):.3f}"
                          f" host s, {n} processes",
        "peak_rss_mb": f"median of {n} processes",
        "sim_iops": f"{pool['completed']} I/Os / "
                    f"{pool['sim_ns'] / 1e9:.6f} sim s, {sampled}",
        "sim_read_p50_ms": f"n={len(pool['read_ns'])}, {sampled}",
        "sim_read_p99_ms": f"n={len(pool['read_ns'])}, {sampled}",
        "sim_write_p50_ms": f"n={len(pool['write_ns'])}, {sampled}",
        "sim_write_p99_ms": f"n={len(pool['write_ns'])}, {sampled}",
        "sim_txn_per_s": (f"{txn_n} PostMark transactions"
                          if pool["txn_ns"] else f"{txn_n} fio requests")
                         + f", {sampled}",
        "sim_txn_p99_ms": f"n={txn_n}, {sampled}",
    }
    for name, unit in END_TO_END:
        print(f"{name:18s} {values[name]:14.6f} {unit:5s} ({basis[name]})")
    attempted, failed = attempted_failed(reps)
    print(f"{'failed_op_ratio':18s} {failed / attempted:14.6f} "
          f"({failed} failed / {attempted} attempted I/Os, PostMark errors "
          f"counted as failed, {n} processes)")
    for rep in reps:
        sh = rep["shadow"]
        print(f"repetition sub-seed {rep['index']}: fingerprint "
              f"{rep['fingerprint']}, shadow {sh['checked_sectors']} sectors "
              f"checked, {sh['learned_sectors']} learned, "
              f"{sh['skipped_sectors']} skipped, {sh['mismatches']} "
              f"mismatches, {rep['host']['measured_s']:.3f} host s")


# --- per-layer harvest (traced run) -------------------------------------


def load_telemetry(path):
    with open(path) as f:
        return json.load(f)


def counter_sum(tel, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in tel["counters"].items() if rx.fullmatch(k))


def delta(start, end, pattern):
    return counter_sum(end, pattern) - counter_sum(start, pattern)


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced):
    """Per-layer metrics of one traced repetition, as (value, unit, basis)."""
    rep = traced[-1]
    tel0 = load_telemetry(os.path.join(rep["out"], "telemetry_start.json"))
    tel1 = load_telemetry(os.path.join(rep["out"], "telemetry.json"))
    with open(os.path.join(rep["out"], "spans.json")) as f:
        spans = json.load(f)["spans"]

    def d(pattern):
        return delta(tel0, tel1, pattern)

    io, host, sim, txn = rep["io"], rep["host"], rep["sim"], rep["txn"]
    ios = io["completed"]
    user_bytes = io["read_bytes"] + io["write_bytes"]
    measured_ns = host["measured_s"] * 1e9
    relay = r"relay\.[^.]+\."
    out = {}

    def put(name, value, unit, basis):
        out[name] = (value, unit, basis)

    put("sim.events_per_io", ratio(sim["events"], ios), "count",
        f"{sim['events']} events / {ios} I/Os")
    put("sim.host_ns_per_event", ratio(measured_ns, sim["events"]), "ns",
        f"{measured_ns:.0f} host ns / {sim['events']} events")
    put("sim.user_cpu_s", host["user_cpu_s"], "s", "getrusage, measured phase")
    put("sim.sys_cpu_s", host["sys_cpu_s"], "s", "getrusage, measured phase")
    put("sim.mailbox_posts_per_batch",
        ratio(sim["mailbox_posts"], sim["mailbox_batches"]), "count",
        f"{sim['mailbox_posts']} posts / {sim['mailbox_batches']} batches "
        "since simulator start")
    put("sim.lookahead_violations", sim["lookahead_violations"], "count",
        "Simulator::lookahead_violations")

    put("cloud.build_s", host["build_s"], "s",
        "host, Simulator + Cloud + create_vm/create_volume")
    put("core.attach_s", host["attach_s"], "s",
        "host, every attach call to its completion")
    put("core.attach_sim_ms", sim["attach_ns"] / 1e6, "ms",
        "sim, every attach call to its completion")
    pdus = d(relay + r"pdus_(relayed|consumed|injected)")
    put("core.relay_pdus_per_io", ratio(pdus, ios), "count",
        f"{pdus} relay PDUs / {ios} I/Os")
    pauses = d(relay + r"bp_pauses")
    put("core.relay_bp_pauses", pauses, "count", "relay backpressure pauses")

    commits = d(relay + r"journal\.commits")
    records = d(relay + r"journal\.committed_records")
    jbytes = d(relay + r"journal\.committed_bytes")
    put("journal.commits_per_io", ratio(commits, ios), "count",
        f"{commits} commits / {ios} I/Os")
    put("journal.records_per_group", ratio(records, commits), "count",
        f"{records} records / {commits} commits")
    put("journal.commit_p99_us", rep["relay"]["journal_commit_p99_ns"] / 1e3,
        "us", "sim, merged over every relay journal since attach")
    put("journal.bytes_per_user_byte", ratio(jbytes, io["write_bytes"]),
        "ratio", f"{jbytes} journal bytes / {io['write_bytes']} written bytes")

    segs = d(r"tcp\.segments_tx")
    copied = d(r"net\.bytes_copied")
    put("net.tcp_segments_per_io", ratio(segs, ios), "count",
        f"{segs} segments / {ios} I/Os")
    put("net.copied_bytes_per_byte", ratio(copied, user_bytes), "ratio",
        f"{copied} copied bytes / {user_bytes} user bytes")
    put("net.tcp_retransmits", d(r"tcp\.retransmits"), "count",
        "tcp.retransmits")
    put("net.tcp_window_stalls", d(r"tcp\.window_stalls"), "count",
        "tcp.window_stalls")
    qwait = tel1["histograms"].get("net.link.queue_wait_ns", {})
    put("net.link_queue_wait_p99_us", qwait.get("p99", 0) / 1e3, "us",
        f"sim, n={qwait.get('count', 0)} packets since start")
    hits = d(r"net\.flow\.cache_hits")
    misses = d(r"net\.flow\.cache_misses")
    put("net.flow_cache_hit_ratio", ratio(hits, hits + misses), "ratio",
        f"{hits} hits / {hits + misses} lookups")

    cmds = d(r"iscsi\.target\.commands")
    put("iscsi.commands_per_io", ratio(cmds, ios), "count",
        f"{cmds} target commands / {ios} I/Os")
    put("iscsi.recoveries", d(r"iscsi\.initiator\.recoveries"), "count",
        "iscsi.initiator.recoveries")

    put("block.submit_host_ns",
        ratio(host["submit_ns_total"], io["attempted"]), "ns",
        f"host, {host['submit_ns_total']} ns / {io['attempted']} submits")

    cipher = d(relay + r"(stream_cipher\.bytes_processed|"
               r"encryption\.bytes_(en|de)crypted)")
    put("services.cipher_bytes_per_host_s",
        ratio(cipher, host["measured_s"]), "B/s",
        f"{cipher} cipher bytes / {host['measured_s']:.6f} host s")
    put("services.replication_quorum_p99_us",
        rep["relay"]["quorum_p99_ns"] / 1e3, "us",
        "sim, merged over every replication relay")
    primary = rep["relay"]["reads_from_primary"]
    replicas = rep["relay"]["reads_from_replicas"]
    put("services.replication_replica_read_share",
        ratio(replicas, primary + replicas), "ratio",
        f"{replicas} replica reads / {primary + replicas} reads")
    tracked = rep["monitor"]["tracked_files"]
    walked = rep["monitor"]["readdir_files"]
    put("services.monitor_tracked_file_ratio", ratio(tracked, walked),
        "ratio", f"{tracked} tracked / {walked} files found by readdir")

    put("fs.block_ios_per_txn", ratio(ios, txn["count"]), "count",
        f"{ios} I/Os / {txn['count']} PostMark transactions")
    put("fs.format_s", host["format_s"], "s", "host, mkfs + format writes")
    put("fs.mount_s", host["mount_s"], "s", "host")

    plain = statistics.median(r["host"]["measured_s"] for r in untraced)
    with_trace = statistics.median(r["host"]["measured_s"] for r in traced)
    put("obs.trace_overhead_ratio", with_trace / plain - 1, "ratio",
        f"median traced {with_trace:.6f} s / untraced {plain:.6f} s "
        f"measured host time - 1; {len(spans)} spans")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SAMPLES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        os.makedirs(OUT_DIR)
        reps = repeat(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    problems = check(reps)
    untraced = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    attempted, failed = attempted_failed(reps)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced + {len(traced)} traced repetitions")
    if args.trace:
        layers = per_layer(traced, untraced)
        for name, (value, unit, basis) in layers.items():
            print(f"{name:40s} {value:16.6f} {unit:6s} ({basis})")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in layers.items()}
    else:
        pool = pooled(reps)
        values = end_to_end(reps, pool)
        print_end_to_end(reps, pool, values)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for p in problems:
        print(f"FAIL: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
