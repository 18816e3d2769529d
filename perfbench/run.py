#!/usr/bin/env python3
"""Repo benchmark: builds the simulator from source, runs one workload and
prints every metric with its unit and time base.

    python3 perfbench/run.py --workload <shard_rkv|nf_chain|rkv_write> \
        --seed <n> --seconds <budget> --trace <0|1> [--acceptance]

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (or
.bench_build), configured as its own CMake project from perfbench/.
With --trace 0 the result line carries the end-to-end metrics, with
--trace 1 the per-layer metrics.  The last line of stdout is the JSON
result; the exit status is nonzero when the build fails or any output
check fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("shard_rkv", "nf_chain", "rkv_write")
SIM_TIMEOUT_S = 170

# name -> (unit, time base)
END_TO_END = {
    "wall_per_sim_s": ("s/s_virtual", "host"),
    "setup_s": ("s", "host"),
    "peak_rss_mb": ("MB", "host"),
    "vt_lat_p50_us": ("us_virtual", "virtual"),
    "vt_lat_p99_us": ("us_virtual", "virtual"),
    "vt_lat_p999_us": ("us_virtual", "virtual"),
    "vt_goodput_kops": ("kop/s_virtual", "virtual"),
    "busy_cores": ("cores", "virtual"),
}

# Host-time layer metrics are thread-seconds of the traced run.
PER_LAYER = {
    # sim: the event engine
    "sim.events": ("count", "virtual"),
    "sim.events_per_op": ("count", "virtual"),
    "sim.events_per_wall_s": ("1/s", "host"),
    "sim.rounds": ("count", "virtual"),
    "sim.events_per_round": ("count", "virtual"),
    "sim.stalled_windows": ("count", "virtual"),
    "sim.handoffs": ("count", "virtual"),
    "sim.residual_wall_s": ("thread_s", "host"),
    "sim.traced_thread_s": ("thread_s", "host"),
    # nic: the NIC model (firmware calls timed by the wrapper)
    "nic.fw_calls": ("count", "host"),
    "nic.fw_idle_calls": ("count", "host"),
    "nic.fw_useful_ratio": ("ratio", "host"),
    "nic.fw_wall_s": ("thread_s", "host"),
    "nic.busy_share": ("ratio", "virtual"),
    "nic.cores": ("cores", "virtual"),
    "nic.tm_drops": ("count", "virtual"),
    # ipipe: runtime scheduler and host<->NIC channel
    "rt.nic_share": ("ratio", "virtual"),
    "rt.migrations": ("count", "virtual"),
    "rt.downgrades": ("count", "virtual"),
    "rt.fcfs_util": ("ratio", "virtual"),
    "rt.drr_util": ("ratio", "virtual"),
    "rt.nic_resp_p99_us": ("us_virtual", "virtual"),
    "chan.sent": ("count", "virtual"),
    "chan.retransmits": ("count", "virtual"),
    "chan.backpressure_us": ("us_virtual", "virtual"),
    "chan.ring_hwm_b": ("B", "virtual"),
    # hostsim: the host model (runtime calls timed by the wrapper)
    "host.rt_calls": ("count", "host"),
    "host.rt_idle_calls": ("count", "host"),
    "host.rt_wall_s": ("thread_s", "host"),
    "host.busy_share": ("ratio", "virtual"),
    "host.cores": ("cores", "virtual"),
    # netsim: the fabric
    "net.frames": ("count", "virtual"),
    "net.frames_per_op": ("count", "virtual"),
    "net.dropped": ("count", "virtual"),
    "net.delivered_ratio": ("ratio", "virtual"),
    # apps: RKV, its hot-key cache and LSM tree
    "cache.hit_rate": ("ratio", "virtual"),
    "cache.invals": ("count", "virtual"),
    "cache.wipes": ("count", "virtual"),
    "rkv.chosen": ("count", "virtual"),
    "rkv.elections": ("count", "virtual"),
    "lsm.flushes": ("count", "virtual"),
    "lsm.compactions": ("count", "virtual"),
    # nfp: the NF pipeline's egress ledger
    "nfp.delivered": ("count", "virtual"),
    "nfp.tombstones": ("count", "virtual"),
    "nfp.order_violations": ("count", "virtual"),
    # workloads: the client generators
    "gen.sent": ("count", "virtual"),
    "gen.retransmits": ("count", "virtual"),
    "gen.redirects": ("count", "virtual"),
    "gen.wrong_shard": ("count", "virtual"),
    "gen.abandoned": ("count", "virtual"),
    "gen.fail_ratio": ("ratio", "virtual"),
    "gen.make_wall_s": ("thread_s", "host"),
    # testbed: set-up steps
    "setup.cluster_s": ("s", "host"),
    "setup.deploy_s": ("s", "host"),
    "setup.plan_s": ("s", "host"),
    # the traced run itself
    "trace.overhead_wall_per_sim_s": ("s/s_virtual", "host"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns the simulator path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "perfbench_sim", "chaos_plan_test"],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        return None
    test = subprocess.run([os.path.join(build_dir, "chaos_plan_test")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if test.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench_sim")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--acceptance", action="store_true",
                    help="shard_rkv: run the bench/sharded_rkv acceptance "
                         "scenario (chaos + rebalance) instead")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    sim = build(build_dir)
    if sim is None:
        log("perfbench: build failed")
        return 1

    cmd = [sim, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.acceptance:
        cmd += ["--acceptance", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=SIM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: simulator timed out")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines or proc.returncode not in (0, 1):
        log("perfbench: simulator failed (exit %d)" % proc.returncode)
        return 1
    report = json.loads(lines[-1])

    table = PER_LAYER if args.trace else END_TO_END
    raw = report["metrics"]
    metrics = {}
    print("# %s seed=%d trace=%d threads=%d sim_s=%g reps=%d setups=%d"
          % (args.workload, args.seed, args.trace, report["threads"],
             report["sim_s"], report["reps"], report["setups"]))
    print("# latency samples=%d (ops attempted=%d, failed/late=%d) events=%d"
          % (report["samples"], report["attempted"], report["failed"],
             report["events"]))
    print("# wall s per simulated s, each repetition, raw: %s"
          % " ".join("%.4g" % w for w in report["rep_wall_per_sim_s"]))
    print("# the same, calibrated: %s"
          % " ".join("%.4g" % w for w in report["rep_ref_per_sim_s"]))
    for name, (unit, base) in table.items():
        # A module a workload does not exercise reads 0.
        value = float(raw.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print("%-32s %16.6g %-10s %s" % (name, value, unit, base))
    for name, ok in report["checks"].items():
        print("check %-55s %s" % (name, "ok" if ok else "FAILED"))
    for name, value in report["digests"].items():
        print("digest %-8s %s" % (name, value))

    correct = bool(report["correct"]) and proc.returncode == 0
    result = {
        "correct": correct,
        # Client ops the run issued, and how many of them returned a wrong
        # result (stale read, lost acked write, reordered packet, failed
        # read-back); ops that merely failed in the model are
        # gen.fail_ratio, a per-layer metric.
        "attempted": max(1, int(report["attempted"])),
        "failed": int(report["violations"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
