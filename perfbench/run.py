#!/usr/bin/env python3
"""End-to-end benchmark of the Cheetah tools (cheetah-profile, cheetah-daemon).

Run from the root of a checkout:

    python3 perfbench/run.py --workload live-sweep --seed 1 --seconds 25 --trace 0

The benchmark builds the tools (and the tracer, perfbench/trace.cpp)
into .bench_build, prepares the workload's inputs from --seed, then drives the
tools as one closed-loop client: one op at a time, from one process, never
more busy OS threads than nproc. Every op's output is checked against
references the benchmark computes itself. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
metrics are the per-layer figures from the in-process tracer, plus the
traced and untraced op medians.

Other entry points:
    --smoke                 one whole op unit per workload, checks only
    --regen DIR             write the seed's generated inputs to DIR
See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
TOOLS = os.path.join(BUILD_DIR, "cheetah", "tools")
PROFILE = os.path.join(TOOLS, "cheetah-profile")
DAEMON = os.path.join(TOOLS, "cheetah-daemon")
TRACER = os.path.join(BUILD_DIR, "perfbench-trace")

MIN_OPS = 100  # so op_ms_p90 has ten ops beyond it
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
DAEMON_EPOCHS = 40  # epochs per daemon launch; each launch is one set-up

LINE_PERIOD = "--sampling-period=64"
PAGE_FLAGS = ["--granularity=page", "--sampling-period=256", "--threads=8"]
# Workloads the seed reaches; the others run their fixed default inputs.
SEEDED = ("canneal", "word_count")
SWEEP = [
    ["linear_regression", LINE_PERIOD],
    ["streamcluster", LINE_PERIOD],
    ["fig1_array", LINE_PERIOD],
    ["canneal", LINE_PERIOD],
    ["word_count", LINE_PERIOD],
    ["matrix_multiply", LINE_PERIOD],
    ["kmeans", LINE_PERIOD],
    ["numa_interleaved"] + PAGE_FLAGS,
    ["numa_asymmetric"] + PAGE_FLAGS
    + ["--numa-topology=topologies/asymmetric4.json"],
]
REPLAY_FLAGS = ["--workload=kmeans", "--sampling-period=32"]
DAEMON_FLAGS = [
    "--workload=numa_first_touch", "--granularity=both", "--threads=3",
    "--scale=4", "--sampling-period=1", "--line-budget=65536",
    "--page-budget=65536",
]
DAEMON_INGEST_THREADS = 3

# OS threads each workload's tool process keeps busy at once.
OS_THREADS = {"live-sweep": 1, "replay-kmeans": 1,
              "daemon-numa": DAEMON_INGEST_THREADS + 1}


def metric_units(section):
    """Metric name -> unit, as BENCHMARK.json at the checkout root lists
    them ("end_to_end" or "per_layer")."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def derive_seed(seed, tag):
    """A workload seed in [1, 2^31) from the benchmark seed and a tag."""
    digest = hashlib.sha256(("%d:%s" % (seed, tag)).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**31 - 1) + 1


def nproc():
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------------
# Build and host


def build():
    """Configures and builds the tools; exits non-zero outside a checkout."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isdir("tools")):
        log("error: run from the root of a Cheetah checkout "
            "(CMakeLists.txt, src/ and tools/ are missing here)")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(min(nproc(), 4)),
                  "--target", "cheetah-profile", "cheetah-daemon",
                  "perfbench-trace"])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("error: build step failed: %s" % " ".join(step))
            sys.exit(1)


def describe():
    """The program's own declarations: decode kernel and per-workload
    ground truth (false-sharing site, page-improvement floor)."""
    proc = subprocess.run([TRACER, "describe"], stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(proc.stdout)


def host_fingerprint(description):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build_type = "unknown"
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {"nproc": nproc(), "cpu_model": model, "build_type": build_type,
            "decode_kernel": description["decode_kernel"]}


# --------------------------------------------------------------------------
# Running one tool process


class ToolRun:
    """Wall time, CPU time and peak RSS of one finished tool process."""

    def __init__(self, args):
        begin = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        self.stderr = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall_s = time.perf_counter() - begin
        self.returncode = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def proc_cpu_s(pid):
    """User+system CPU seconds of a live child, from /proc/<pid>/stat."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


# --------------------------------------------------------------------------
# Checks. Each returns None when the output passes, else the reason.


def significant(findings):
    return [f for f in findings if f.get("significant")]


def check_live_report(report, kind, truth, reference):
    """kind: 'line' (known false sharing), 'none' (no false sharing) or
    'page'. reference: native broken and padded cycles of this workload."""
    if not isinstance(report, dict) or "summary" not in report:
        return "no report"
    if kind == "none":
        hits = significant(report.get("findings", []))
        return "unexpected significant finding" if hits else None
    speedup = reference["broken"] / reference["padded"]
    if kind == "line":
        hits = [f for f in significant(report.get("findings", []))
                if truth["site"] in f.get("object", {}).get("name", "")]
        if not hits:
            return "no significant finding on %s" % truth["site"]
        predicted = hits[0]["predictedImprovement"]
        if abs(predicted / speedup - 1.0) > 0.10:
            return ("prediction %.3fx is not within 10%% of the measured "
                    "%.3fx" % (predicted, speedup))
        return None
    pages = report.get("pageFindings", [])
    hits = significant(pages)
    if not hits:
        return "no significant page finding"
    top = max(f["predictedImprovement"] for f in hits)
    if top < truth["page_floor"]:
        return "prediction %.3fx below the floor %.3fx" % (
            top, truth["page_floor"])
    if speedup <= 1.0:
        return "padded native run is not faster than the broken one"
    for finding in pages:
        spread = sum(d["accesses"] for d in finding["remote_by_distance"])
        if spread != finding["remote_accesses"]:
            return "remote_by_distance does not sum to remote_accesses"
    return None


def count_trace_samples(path):
    """Sample events in a cheetah-trace-v1 file, counted by the benchmark."""
    trace = load_json(path)
    if not isinstance(trace, dict) or not isinstance(trace.get("events"),
                                                     list):
        return None
    return sum(1 for e in trace["events"] if e.get("k") == "s")


def check_replay(report_bytes, live_bytes, trace_samples):
    if report_bytes != live_bytes:
        return "replayed report differs from the live report"
    report = json.loads(report_bytes)
    seen = report["summary"]["detector"]["seen"]
    if seen != trace_samples:
        return "detector saw %d samples, the trace holds %d" % (
            seen, trace_samples)
    return None


def check_epoch(directory, epoch, store, captured):
    """One daemon epoch: stored as run epoch-<k>, its snapshot counts
    (k+1) x captured samples, and evicted residue + live accesses equal
    the detector's recorded totals."""
    run_id = "epoch-%d" % epoch
    runs = store.get("runs", []) if isinstance(store, dict) else []
    if len(runs) <= epoch or runs[epoch].get("id") != run_id:
        return "store has no run %s" % run_id
    snap = load_json(os.path.join(directory, run_id + ".json"))
    if not isinstance(snap, dict) or "summary" not in snap:
        return "missing snapshot %s" % run_id
    summary = snap["summary"]
    if summary["samples"] != (epoch + 1) * captured:
        return "epoch %d reports %d samples, expected %d" % (
            epoch, summary["samples"], (epoch + 1) * captured)
    eviction = summary.get("eviction", {})
    for stage, findings, recorded in (
            ("line", snap["findings"], "recorded"),
            ("page", snap["pageFindings"], "page_recorded")):
        residue = eviction.get(stage, {}).get("accesses", 0)
        live = sum(f["accesses"] for f in findings)
        if residue + live != summary["detector"][recorded]:
            return "%s residue %d + live %d != recorded %d" % (
                stage, residue, live, summary["detector"][recorded])
    return None


def check_store(directory, epochs):
    store = load_json(os.path.join(directory, "store.json"))
    if isinstance(store, dict) and len(store.get("runs", [])) != epochs:
        return None, "store holds %d runs for %d epochs" % (
            len(store["runs"]), epochs)
    return store, None


# --------------------------------------------------------------------------
# Workloads. Each has setup() -> seconds (None: timed per op unit),
# op_unit(ops), which runs one whole unit and adds its ops, and
# traced(seconds) -> (tracer result, extra attempted, extra failed).


class Ops:
    """Accumulates op records: wall ms, CPU s, RSS MB, samples, failure."""

    def __init__(self):
        self.wall_ms, self.cpu_s, self.samples = [], 0.0, 0
        self.rss_mb, self.failed, self.wall_s = 0.0, 0, 0.0
        self.reasons = {}

    def add(self, wall_s, cpu_s, rss_mb, samples, failure):
        self.wall_ms.append(wall_s * 1000.0)
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.rss_mb = max(self.rss_mb, rss_mb)
        self.samples += samples
        if failure:
            self.failed += 1
            self.reasons[failure] = self.reasons.get(failure, 0) + 1

    def metrics(self, setup_times):
        quartiles = statistics.quantiles(self.wall_ms, n=10,
                                         method="inclusive")
        return {
            "setup_s": statistics.median(setup_times),
            "op_ms_p50": statistics.median(self.wall_ms),
            "op_ms_p90": quartiles[8],
            "cpu_ms_per_op": self.cpu_s * 1000.0 / len(self.wall_ms),
            "samples_per_s": self.samples / self.wall_s,
            "peak_rss_mb": self.rss_mb,
        }


class LiveSweep:
    name = "live-sweep"

    def __init__(self, seed, truths, work):
        self.work = work
        self.truths = truths
        self.ops = []
        for entry in SWEEP:
            flags = ["--workload=" + entry[0]] + entry[1:]
            if entry[0] in SEEDED:
                flags.append("--seed=%d" % derive_seed(seed, entry[0]))
            truth = truths[entry[0]]
            kind = ("page" if truth["page_floor"] > 0 else
                    "line" if truth["significant"] else "none")
            self.ops.append((entry[0], flags, kind))
        self.references = {}

    def setup(self):
        """Native broken and padded runs of every swept workload with a
        prediction to check (no-false-sharing workloads need none)."""
        begin = time.perf_counter()
        for name, flags, kind in self.ops:
            if kind == "none":
                continue
            cycles = {}
            for variant, extra in (("broken", []), ("padded", ["--fix"])):
                run = ToolRun([PROFILE] + flags + extra +
                              ["--native", "--format=json",
                               "--output=" + os.devnull])
                match = re.search(r"native runtime ([\d,]+) cycles",
                                  run.stderr)
                if run.returncode != 0 or not match:
                    raise RuntimeError("reference run of %s failed: %s" %
                                       (name, run.stderr[-500:]))
                cycles[variant] = int(match.group(1).replace(",", ""))
            self.references[name] = cycles
        return time.perf_counter() - begin

    def check(self, index, report):
        name, _, kind = self.ops[index]
        return check_live_report(report, kind, self.truths[name],
                                 self.references.get(name))

    def run_op(self, index):
        out = os.path.join(self.work, "op-%d.json" % index)
        if os.path.exists(out):
            os.remove(out)
        run = ToolRun([PROFILE] + self.ops[index][1] +
                      ["--format=json", "--output=" + out])
        return run, out

    def account(self, index, run, out, ops):
        report = load_json(out) if run.returncode == 0 else None
        failure = self.check(index, report)
        samples = report["summary"]["detector"]["seen"] if report else 0
        ops.add(run.wall_s, run.cpu_s, run.rss_mb, samples, failure)

    def op_unit(self, ops):
        """One round over the sweep."""
        for index in range(len(self.ops)):
            self.account(index, *self.run_op(index), ops)

    def traced(self, seconds):
        out = os.path.join(self.work, "traced")
        os.makedirs(out, exist_ok=True)
        result = run_tracer(["live", repr(seconds), out] +
                            [" ".join(flags) for _, flags, _ in self.ops])
        failed = sum(1 for i in range(len(self.ops)) if self.check(
            i, load_json(os.path.join(out, "op-%d.json" % i))))
        return result, len(self.ops), failed


class ReplayKmeans:
    name = "replay-kmeans"

    def __init__(self, seed, truths, work):
        self.work = work
        self.flags = REPLAY_FLAGS + ["--seed=%d" % derive_seed(seed, "kmeans")]
        self.trace = os.path.join(work, "kmeans.trace")
        self.live = os.path.join(work, "live.json")
        self.live_bytes = b""
        self.trace_samples = None

    def setup(self):
        """Records the trace and its live report."""
        run = ToolRun([PROFILE] + self.flags +
                      ["--format=json", "--record-trace=" + self.trace,
                       "--output=" + self.live])
        if run.returncode != 0:
            raise RuntimeError("recording failed: " + run.stderr[-500:])
        with open(self.live, "rb") as f:
            self.live_bytes = f.read()
        self.trace_samples = count_trace_samples(self.trace)
        return run.wall_s

    def replay(self, trace, out):
        if os.path.exists(out):
            os.remove(out)
        run = ToolRun([PROFILE] + self.flags +
                      ["--backend=trace:" + trace, "--format=json",
                       "--output=" + out])
        report_bytes = b""
        if run.returncode == 0:
            with open(out, "rb") as f:
                report_bytes = f.read()
        failure = (check_replay(report_bytes, self.live_bytes,
                                self.trace_samples)
                   if run.returncode == 0 else "replay exited %d" %
                   run.returncode)
        samples = self.trace_samples if not failure else 0
        return run, samples, failure

    def op_unit(self, ops):
        run, samples, failure = self.replay(
            self.trace, os.path.join(self.work, "replay.json"))
        ops.add(run.wall_s, run.cpu_s, run.rss_mb, samples, failure)

    def traced(self, seconds):
        out = os.path.join(self.work, "traced")
        os.makedirs(out, exist_ok=True)
        # The tracer records its own trace and compares every replayed
        # report with the live one it recorded alongside.
        result = run_tracer(["replay", repr(seconds), out,
                             os.path.join(out, "kmeans.trace"),
                             os.path.join(out, "live.json"),
                             " ".join(self.flags)])
        return result, 0, 0


class Launch:
    """What one daemon launch left: per-epoch wall times, the captured
    sample count, CPU and peak RSS of the process, and its directory."""

    def __init__(self, directory, epochs):
        self.directory, self.epochs = directory, epochs
        self.walls, self.captured, self.setup_s = [], None, None
        self.returncode, self.cpu_s, self.rss_mb = None, 0.0, 0.0


class DaemonNuma:
    name = "daemon-numa"

    def __init__(self, seed, truths, work):
        self.work = work
        self.flags = DAEMON_FLAGS + ["--seed=%d" %
                                     derive_seed(seed, "numa_first_touch")]
        self.launches = 0
        self.pending_setup = []

    def setup(self):
        # Every launch captures anew, so set-up is timed per launch.
        return None

    def run_daemon(self, epochs):
        """One daemon launch of `epochs` epochs. Each epoch is timed by
        when its progress line arrives on stderr; set-up runs from launch
        to the capture line that precedes the first epoch."""
        launch = Launch(os.path.join(self.work, "launch-%d" % self.launches),
                        epochs)
        self.launches += 1
        shutil.rmtree(launch.directory, ignore_errors=True)
        os.makedirs(launch.directory)
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [DAEMON] + self.flags +
            ["--epochs=%d" % epochs,
             "--store=" + os.path.join(launch.directory, "store.json"),
             "--snapshot-dir=" + launch.directory],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        last, cpu_begin, cpu_end = None, 0.0, None
        for line in proc.stderr:
            now = time.perf_counter()
            match = re.match(r"cheetah-daemon: captured (\d+) samples", line)
            if match:
                launch.captured = int(match.group(1))
                launch.setup_s, last = now - begin, now
                cpu_begin = proc_cpu_s(proc.pid)
            elif re.match(r"cheetah-daemon: epoch \d+ ->", line) and last:
                launch.walls.append(now - last)
                last = now
                if len(launch.walls) == epochs:
                    cpu_end = proc_cpu_s(proc.pid)
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        launch.returncode = proc.returncode
        launch.rss_mb = usage.ru_maxrss / 1024.0
        if cpu_end is None:
            cpu_end = usage.ru_utime + usage.ru_stime
        launch.cpu_s = cpu_end - cpu_begin
        if launch.setup_s is not None:
            self.pending_setup.append(launch.setup_s)
        return launch

    def account(self, launch, ops):
        """Checks every epoch of a finished launch; one op per epoch."""
        store, store_failure = check_store(launch.directory, launch.epochs)
        cpu_per_epoch = launch.cpu_s / max(len(launch.walls), 1)
        for epoch in range(launch.epochs):
            if epoch >= len(launch.walls) or launch.returncode != 0:
                failure = "daemon exited %d before epoch %d" % (
                    launch.returncode, epoch)
                wall = launch.walls[epoch] if epoch < len(launch.walls) else 0
                ops.add(wall, cpu_per_epoch, launch.rss_mb, 0, failure)
                continue
            failure = store_failure or check_epoch(
                launch.directory, epoch, store, launch.captured)
            ops.add(launch.walls[epoch], cpu_per_epoch, launch.rss_mb,
                    launch.captured if not failure else 0, failure)

    def op_unit(self, ops):
        self.account(self.run_daemon(DAEMON_EPOCHS), ops)

    def traced(self, seconds):
        out = os.path.join(self.work, "traced")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        result = run_tracer(["daemon", repr(seconds), out,
                             str(DAEMON_EPOCHS), " ".join(self.flags)])
        directory = os.path.join(out, "launch-0")
        store, failure = check_store(directory, DAEMON_EPOCHS)
        captured = result["layers"]["detect.samples_seen"] if result else 0
        failed = 0
        for epoch in range(DAEMON_EPOCHS):
            if failure or check_epoch(directory, epoch, store,
                                      int(round(captured))):
                failed += 1
        return result, DAEMON_EPOCHS, failed


WORKLOADS = {w.name: w for w in (LiveSweep, ReplayKmeans, DaemonNuma)}


def run_tracer(args):
    proc = subprocess.run([TRACER] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("tracer failed (%d): %s %s" % (proc.returncode, proc.stdout[-500:],
                                          proc.stderr[-500:]))
        return None
    return json.loads(lines[-1])


# --------------------------------------------------------------------------
# Driving a workload


def measure(workload, seconds, min_ops, setup_repeats):
    """Set-up (repeated), then whole op units until both the time and the
    op floor are reached. Returns (ops, setup times)."""
    setup_times = []
    for _ in range(setup_repeats):
        took = workload.setup()
        if took is not None:
            setup_times.append(took)
    ops = Ops()
    begin = time.perf_counter()
    while (not ops.wall_ms or len(ops.wall_ms) < min_ops
           or time.perf_counter() - begin < seconds):
        workload.op_unit(ops)
    setup_times += getattr(workload, "pending_setup", [])
    return ops, setup_times


def fresh_work_dir(name):
    work = os.path.join(WORK_DIR, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def run_benchmark(args):
    build()
    description = describe()
    print(json.dumps({"host": host_fingerprint(description),
                      "workload": args.workload, "seed": args.seed}),
          flush=True)
    if OS_THREADS[args.workload] > nproc():
        log("error: %s keeps %d OS threads busy but nproc is %d; refusing "
            "to oversubscribe" % (args.workload, OS_THREADS[args.workload],
                                  nproc()))
        sys.exit(1)
    workload = WORKLOADS[args.workload](
        args.seed, description["workloads"], fresh_work_dir(args.workload))

    if not args.trace:
        ops, setup_times = measure(workload, args.seconds, MIN_OPS,
                                   SETUP_REPEATS)
        values = ops.metrics(setup_times)
        units = metric_units("end_to_end")
        attempted, failed = len(ops.wall_ms), ops.failed
    else:
        # Half the time untraced (the tools), half traced (in process).
        ops, setup_times = measure(workload, args.seconds / 2.0, 1, 1)
        result, extra_attempted, extra_failed = workload.traced(
            args.seconds / 2.0)
        attempted = len(ops.wall_ms) + max(extra_attempted, 1)
        failed = ops.failed + (extra_failed if result and result["ok"]
                               else max(extra_attempted, 1))
        units = metric_units("per_layer")
        values = dict(result["layers"]) if result else {
            name: 0.0 for name in units}
        values["overhead.op_ms_p50_untraced"] = statistics.median(
            ops.wall_ms)
        values["overhead.op_ms_p50_traced"] = (result["op_ms_p50"]
                                               if result else 0.0)
    for reason, count in sorted(ops.reasons.items()):
        log("failed x%d: %s" % (count, reason))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def run_smoke(args):
    """One whole op unit per workload (a sweep round, one replay, one
    two-epoch daemon launch), with every check."""
    build()
    description = describe()
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(args.seed, description["workloads"],
                       fresh_work_dir(name))
        workload.setup()
        ops = Ops()
        if name == "daemon-numa":
            workload.account(workload.run_daemon(2), ops)
        else:
            workload.op_unit(ops)
        print(json.dumps({"workload": name, "attempted": len(ops.wall_ms),
                          "failed": ops.failed, "reasons": ops.reasons}),
              flush=True)
        ok = ok and ops.failed == 0
    return 0 if ok else 1


def run_regen(args):
    """Regenerates a seed's inputs into a directory for inspection: the
    live-sweep reference cycles and the kmeans trace with its live
    report."""
    build()
    description = describe()
    os.makedirs(args.regen, exist_ok=True)
    sweep = LiveSweep(args.seed, description["workloads"], args.regen)
    sweep.setup()
    with open(os.path.join(args.regen, "references.json"), "w") as f:
        json.dump({"seed": args.seed, "ops": [
            {"workload": name, "flags": flags, "kind": kind,
             "native_cycles": sweep.references.get(name)}
            for name, flags, kind in sweep.ops]}, f, indent=1)
    replay = ReplayKmeans(args.seed, description["workloads"], args.regen)
    replay.setup()
    log("wrote references.json, kmeans.trace (%d samples) and live.json "
        "to %s" % (replay.trace_samples, args.regen))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regen", metavar="DIR")
    args = parser.parse_args()
    if args.smoke:
        return run_smoke(args)
    if args.regen:
        return run_regen(args)
    if not args.workload:
        parser.error("--workload is required")
    run_benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
