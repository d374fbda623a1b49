#!/usr/bin/env python3
"""perfbench: the repository's end-to-end synthesis benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seconds S] [--trace 0|1]   # every workload
    python3 perfbench/run.py --record

Builds perfbench_runner, and for the traced run perfbench_replay (Release),
into .bench_build/perfbench, then:

  --trace 0  measures the workload end to end. Every measured run is its own
             runner process; wall_s comes from the process, cpu_s and
             peak_rss_mb from its rusage (wait4). setup_s is the median over
             set-up-only processes. Every suite is checked against
             reference.json.
  --trace 1  reports the per-layer metrics: an untraced engine run
             (scheduler counters), an engine run with its own phase report,
             and the sequential replay traced and untraced.
  --record   re-records reference.json from engine runs, after checking the
             runs against independent sources.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Inputs are fixed (an exhaustive search samples nothing); the seed
only decides where the set-up samples fall among the measured runs.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"   # setup and engine runs
REPLAY = BUILD / "perfbench_replay"   # the sequential replay
REFERENCE = BENCH / "reference.json"

SETUP_SAMPLES = 41      # set-up-only processes per measured invocation
SPAN_SAMPLE_DIR = BUILD / "trace"

# The paper reports five tlb_causality tests.
PAPER_TLB_CAUSALITY_TESTS = 5


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build(targets):
    """Configures (once) and builds the given targets. Build output goes to
    stderr so stdout stays the report."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "synth" / "engine.h").is_file():
        raise BenchError(f"no transform sources under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", *targets,
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


# -------------------------------------------------------------- processes

_active_pid = None


def _stop_active(signum, _frame):
    """Stops the running child before exiting on SIGTERM/SIGINT."""
    if _active_pid is not None:
        try:
            os.kill(_active_pid, signal.SIGKILL)
            os.waitpid(_active_pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    sys.exit(128 + signum)


def spawn(argv):
    """Runs argv (a perfbench program and its arguments) in its own
    process. Returns the parsed JSON it printed, plus the spawn time
    (CLOCK_MONOTONIC ns) and the process's own CPU seconds and peak RSS
    (MB) from wait4."""
    global _active_pid
    argv = [str(arg) for arg in argv]
    read_fd, write_fd = os.pipe()
    spawned_ns = time.monotonic_ns()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, write_fd, 1),
        (os.POSIX_SPAWN_CLOSE, read_fd),
    ])
    _active_pid = pid
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        output = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    _active_pid = None
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchError(f"{' '.join(argv)}: exited with {code}")
    result = json.loads(output.decode())
    result["spawned_ns"] = spawned_ns
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return result


# ----------------------------------------------------------- correctness

def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def check_suites(workload, run, reference):
    """Compares a run's suites with the reference. Returns
    (attempted, failed, problems)."""
    expected = reference["workloads"][workload]["suites"]
    suites = run["suites"]
    problems = []
    failed = 0
    for i, want in enumerate(expected):
        got = suites[i] if i < len(suites) else None
        why = None
        if got is None or got["axiom"] != want["axiom"]:
            why = "missing"
        elif not got["complete"] or got["cancelled"] or got["failures"]:
            why = "incomplete"
        elif (got["tests"], got["fingerprint"], got["key_hash"]) != \
                (want["tests"], want["fingerprint"], want["key_hash"]):
            why = (f"{got['tests']} tests {got['fingerprint']}, reference "
                   f"{want['tests']} tests {want['fingerprint']}")
        if why is not None:
            failed += 1
            problems.append(f"{run['mode']} {workload}/{want['axiom']}: {why}")
    extra = len(suites) - len(expected)
    if extra > 0:
        failed += extra
        problems.append(f"{run['mode']} {workload}: {extra} unexpected suites")
    return max(len(expected), len(suites)), failed, problems


class Tally:
    """Suites attempted and failed across the runs of one invocation."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, run):
        attempted, failed, problems = check_suites(self.workload, run,
                                                   self.reference)
        self.attempted += attempted
        self.failed += failed
        for problem in problems:
            log(f"MISMATCH {problem}")

    def lost(self):
        """A run that produced nothing: all its suites failed."""
        count = len(self.reference["workloads"][self.workload]["suites"])
        self.attempted += count
        self.failed += count


# ------------------------------------------------------------ end to end

def measure(workload, seed, seconds, reference):
    """Measured runs for about `seconds`, plus set-up samples. The number
    of runs is fixed by the first run's length: round(seconds / first),
    at least one."""
    rng = random.Random(seed)
    tally = Tally(workload, reference)
    runs, setups = [], []
    pending_setups = SETUP_SAMPLES

    def sample_setups(count):
        for _ in range(count):
            sample = spawn([RUNNER, "setup", workload])
            setups.append((sample["ready_ns"] - sample["spawned_ns"]) * 1e-9)

    planned, attempts = None, 0
    while planned is None or attempts < planned:
        attempts += 1
        before = rng.randint(0, pending_setups)
        sample_setups(before)
        pending_setups -= before
        started = time.monotonic()
        try:
            run = spawn([RUNNER, "engine", workload])
        except (BenchError, ValueError) as error:
            log(f"run failed: {error}")
            tally.lost()
            run = None
        elapsed = time.monotonic() - started
        if planned is None:
            planned = max(1, round(seconds / elapsed)) if run else 1
        if run is None:
            continue
        tally.check(run)
        runs.append(run)
        setups.append((run["ready_ns"] - run["spawned_ns"]) * 1e-9)
        # The job tree depends on timing; its counters tell a run that did
        # more work apart from a slow machine.
        sched = run["scheduler"]
        print(f"{workload} run {len(runs)}/{planned}: wall "
              f"{run['wall_s']:.3f} s, cpu {run['cpu_s']:.3f} s, rss "
              f"{run['peak_rss_mb']:.1f} MB, jobs {sched['jobs_run']}, "
              f"steals {sched['steals']}, re-splits {sched['lazy_resplits']}, "
              f"skip re-enumerations {sched['skip_enumerations']}",
              flush=True)
    sample_setups(pending_setups)
    if not runs:
        raise BenchError("every measured run failed")
    return tally, end_to_end_metrics(runs, setups)


def end_to_end_metrics(runs, setups):
    """name -> (value, unit): medians over the measured runs and the
    set-up samples."""
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


# -------------------------------------------------------------- per layer

def per_layer(workload, reference):
    """The traced run: engine runs for the scheduler counters and the
    engine's own phase report, then the replay traced and untraced."""
    tally = Tally(workload, reference)
    SPAN_SAMPLE_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = SPAN_SAMPLE_DIR / f"{workload}.spans.json"
    engine = spawn([RUNNER, "engine", workload])
    tally.check(engine)
    phased = spawn([RUNNER, "engine", workload, "--metrics"])
    tally.check(phased)
    traced = spawn([REPLAY, workload, "--spans", spans_path])
    tally.check(traced)
    untraced = spawn([REPLAY, workload])
    tally.check(untraced)
    metrics = layer_metrics(engine, phased, traced, untraced)
    report = phase_comparison(phased, traced)
    print_comparison(workload, report)
    with open(SPAN_SAMPLE_DIR / f"{workload}.layers.json", "w") as f:
        json.dump({"workload": workload, "metrics": metrics,
                   "engine_phases": phased["phases"], "replay": traced,
                   "comparison": report}, f, indent=1)
    log(f"span sample: {spans_path}")
    return tally, metrics


def layer_metrics(engine, phased, traced, untraced):
    """name -> (value, unit) from the four processes of the traced run."""
    ops = traced["ops"]
    counts = traced["counts"]
    solver = traced["solver"]

    def ratio(num, den):
        return num / den if den else 0.0

    def op(name, field):
        return ops[name][field]

    def layer_self(layer):
        return sum(o["self_s"] for o in ops.values() if o["layer"] == layer)

    def layer_allocs(layer):
        return sum(o["self_allocs"] for o in ops.values()
                   if o["layer"] == layer)

    judge_calls = op("judge", "calls")
    exec_calls = op("for_each_execution", "calls")
    inc_calls = op("IncrementalEncoding::enumerate", "calls")
    enc_calls = op("ProgramEncoding::enumerate", "calls")
    sched = engine["scheduler"]
    return {
        "synth.skeleton.programs": (counts["programs"], "count"),
        "synth.skeleton.self_s": (op("for_each_skeleton", "self_s"), "s"),
        "synth.skeleton.allocs_per_program": (
            ratio(op("for_each_skeleton", "self_allocs"), counts["programs"]),
            "allocs/program"),
        "synth.exec_enum.calls": (exec_calls, "count"),
        "synth.exec_enum.executions_per_call": (
            ratio(counts["executions"], exec_calls), "execs/call"),
        "synth.exec_enum.self_s": (op("for_each_execution", "self_s"), "s"),
        "synth.exec_enum.allocs_per_call": (
            ratio(op("for_each_execution", "self_allocs"), exec_calls),
            "allocs/call"),
        "elt.derive.calls": (op("derive_into", "calls"), "count"),
        "elt.derive.self_s": (op("derive_into", "self_s"), "s"),
        "elt.derive.allocs_per_call": (
            ratio(op("derive_into", "self_allocs"),
                  op("derive_into", "calls")), "allocs/call"),
        "mtm.model.calls": (op("violated_mask", "calls"), "count"),
        "mtm.model.self_s": (op("violated_mask", "self_s"), "s"),
        "mtm.model.violating_ratio": (
            ratio(counts["violating"], counts["verdicts"]), "ratio"),
        "synth.minimality.calls": (judge_calls, "count"),
        "synth.minimality.self_s": (layer_self("synth.minimality"), "s"),
        "synth.minimality.allocs_per_call": (
            ratio(layer_allocs("synth.minimality"), judge_calls),
            "allocs/call"),
        "synth.minimality.minimal_ratio": (
            ratio(counts["minimal"], judge_calls), "ratio"),
        "synth.canonical.calls": (op("canonical_key", "calls"), "count"),
        "synth.canonical.self_s": (op("canonical_key", "self_s"), "s"),
        "synth.canonical.allocs_per_call": (
            ratio(op("canonical_key", "self_allocs"),
                  op("canonical_key", "calls")), "allocs/call"),
        "sched.sharded_index.calls": (
            op("ShardedKeyIndex::record", "calls"), "count"),
        "sched.sharded_index.self_s": (
            op("ShardedKeyIndex::record", "self_s"), "s"),
        "sched.sharded_index.dup_ratio": (
            ratio(counts["index_hits"], op("ShardedKeyIndex::record",
                                           "calls")), "ratio"),
        "sched.sharded_index.keys": (counts["keys"], "count"),
        "mtm.incremental.calls": (inc_calls, "count"),
        "mtm.incremental.self_s": (
            op("IncrementalEncoding::enumerate", "self_s"), "s"),
        "mtm.incremental.base_builds_per_call": (
            ratio(counts["bases_built"], inc_calls), "builds/call"),
        "mtm.incremental.accept_ratio": (
            ratio(counts["probes_accepted"], inc_calls), "ratio"),
        "mtm.encoding.calls": (enc_calls, "count"),
        "mtm.encoding.self_s": (op("ProgramEncoding::enumerate", "self_s"),
                                "s"),
        "mtm.encoding.allocs_per_call": (
            ratio(op("ProgramEncoding::enumerate", "self_allocs"), enc_calls),
            "allocs/call"),
        "sat.solver.solve_s": (solver["solve_s"], "s"),
        "sat.solver.conflicts_per_program": (
            ratio(solver["conflicts"], inc_calls), "count/program"),
        "sat.solver.propagations_per_program": (
            ratio(solver["propagations"], inc_calls), "count/program"),
        "sched.scheduler.jobs_run": (sched["jobs_run"], "count"),
        "sched.scheduler.steals": (sched["steals"], "count"),
        "sched.scheduler.lazy_resplits": (sched["lazy_resplits"], "count"),
        "sched.scheduler.skip_enumerations": (sched["skip_enumerations"],
                                              "count"),
        "sched.scheduler.queue_wait_s": (sched["queue_wait_s"], "s"),
        "sched.scheduler.cpu_utilization": (
            ratio(engine["cpu_s"], engine["wall_s"] * engine["jobs"]),
            "ratio"),
        "spec.registry.resolve_s": (
            statistics.median(r["resolve_s"] for r in
                              (engine, phased, traced, untraced)), "s"),
        "trace.coverage": (
            ratio(op("for_each_skeleton", "seconds"), traced["wall_s"]),
            "ratio"),
        "trace.overhead_ratio": (
            ratio(traced["wall_s"] - untraced["wall_s"], untraced["wall_s"]),
            "ratio"),
    }


# Engine phases beside the outside-timed layers that do the same work.
# The engine's derive phase times derive_into and violated_mask together;
# its skeleton_enum phase is every shard-job nanosecond no other phase
# claimed. The last field names the layer calls the documentation calls
# allocation-free in steady state (DESIGN.md, docs/performance.md).
PHASE_LAYERS = [
    (("skeleton_enum",), ("synth.skeleton", "synth.exec_enum"), None),
    (("derive",), ("elt.derive", "mtm.model"), "derive_into"),
    (("judge", "relax"), ("synth.minimality",), "judge"),
    (("canonicalize",), ("synth.canonical",), None),
    (("dedup",), ("sched.sharded_index",), None),
    (("sat_encode", "sat_solve"), ("mtm.incremental", "mtm.encoding"), None),
]

SHARE_TOLERANCE = 0.10   # flag time shares more than 10 points apart
ALLOC_TOLERANCE = 0.25   # flag allocations per program more than 25% apart
HIDDEN_SHARE = 0.05      # flag a layer without an engine phase above 5%


def phase_comparison(phased, traced):
    """Rows of engine phases beside outside-timed layers: share of time and
    allocations per candidate program on each side, with flags where they
    disagree: shares or allocation counts apart, work the engine files
    under another phase, and allocations in calls documented as
    allocation-free."""
    phases = phased["phases"]
    ops = traced["ops"]
    engine_total = sum(v["seconds"] for k, v in phases.items()
                       if k != "queue_wait") or 1.0
    layer_total = sum(o["self_s"] for o in ops.values()) or 1.0
    engine_programs = sum(s["programs"] for s in phased["suites"]) or 1
    layer_programs = traced["counts"]["programs"] or 1
    rows = []
    for phase_names, layers, allocation_free in PHASE_LAYERS:
        in_row = [o for o in ops.values() if o["layer"] in layers]
        row = {
            "engine_phases": list(phase_names),
            "layers": list(layers),
            "engine_share": sum(phases[p]["seconds"] for p in phase_names)
            / engine_total,
            "layer_share": sum(o["self_s"] for o in in_row) / layer_total,
            "engine_allocs_per_program":
                sum(phases[p]["allocs"] for p in phase_names)
                / engine_programs,
            "layer_allocs_per_program":
                sum(o["self_allocs"] for o in in_row) / layer_programs,
            "flags": [],
        }
        if abs(row["engine_share"] - row["layer_share"]) > SHARE_TOLERANCE:
            row["flags"].append("time shares differ")
        e_allocs = row["engine_allocs_per_program"]
        l_allocs = row["layer_allocs_per_program"]
        if abs(e_allocs - l_allocs) > max(1.0, ALLOC_TOLERANCE * l_allocs):
            row["flags"].append("allocations per program differ")
        if "synth.exec_enum" in layers:
            hidden = sum(o["self_s"] for o in ops.values()
                         if o["layer"] == "synth.exec_enum") / layer_total
            if hidden > HIDDEN_SHARE:
                row["flags"].append(
                    f"{phase_names[0]} holds execution enumeration "
                    f"({hidden:.0%} of layer self time), which has no "
                    "engine phase")
        if allocation_free is not None:
            calls = ops[allocation_free]["calls"]
            per_call = sum(o["self_allocs"] for o in in_row) / calls \
                if calls else 0.0
            if per_call >= 0.5:
                row["flags"].append(
                    f"{allocation_free} is documented allocation-free but "
                    f"makes {per_call:.2f} allocations per call")
        rows.append(row)
    return rows


def print_comparison(workload, rows):
    print(f"engine phase report beside outside-timed layers ({workload}); "
          "allocs are per candidate program")
    print(f"  {'engine phase':<22} {'share':>6} {'allocs':>8}   "
          f"{'layers':<30} {'share':>6} {'allocs':>8}")
    for row in rows:
        print(f"  {'+'.join(row['engine_phases']):<22} "
              f"{row['engine_share']:>6.1%} "
              f"{row['engine_allocs_per_program']:>8.2f}   "
              f"{'+'.join(row['layers']):<30} {row['layer_share']:>6.1%} "
              f"{row['layer_allocs_per_program']:>8.2f}")
        for flag in row["flags"]:
            print(f"    DISAGREE: {flag}")


# ---------------------------------------------------------------- record

def record():
    """Records reference.json from one engine run per workload, after
    checking the runs against independent sources."""
    names = subprocess.run([str(RUNNER), "list"], check=True,
                           capture_output=True, text=True).stdout.split()
    runs = {name: spawn([RUNNER, "engine", name]) for name in names}
    builtin = spawn([RUNNER, "engine", "mcm-spec-all-b6-j1", "--model",
                     "x86tso"])
    problems = cross_check(runs, builtin["suites"])
    for name, run in runs.items():
        for suite in run["suites"]:
            if not suite["complete"] or suite["failures"]:
                problems.append(f"{name}/{suite['axiom']} incomplete")
    if problems:
        for problem in problems:
            log(f"CROSS-CHECK FAILED: {problem}")
        return 1
    keep = ("axiom", "tests", "fingerprint", "key_hash")
    reference = {
        "workloads": {
            name: {"suites": [{k: s[k] for k in keep} for s in run["suites"]]}
            for name, run in runs.items()
        },
        "builtin_x86tso": {
            "suites": [{k: s[k] for k in keep} for s in builtin["suites"]]
        },
    }
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    log(f"recorded {REFERENCE}")
    return 0


def cross_check(suites_by_workload, builtin_suites):
    """Independent-source checks on recorded suites; returns problems.
    suites_by_workload maps workload name to an object with "suites"."""
    def suites(name):
        return {s["axiom"]: s for s in suites_by_workload[name]["suites"]}

    problems = []
    enum = suites("vm-enum-all-b8-j2")
    sat = suites("vm-sat-causality-b8-j1")
    # The SAT encoding and the explicit enumerator are independent
    # implementations; their causality test sets must agree.
    if (sat["causality"]["tests"], sat["causality"]["key_hash"]) != \
            (enum["causality"]["tests"], enum["causality"]["key_hash"]):
        problems.append("SAT causality tests differ from the enumerative "
                        "causality suite")
    # The x86tso.mtm twin must reproduce the hardwired x86tso exactly.
    spec = [(s["axiom"], s["tests"], s["fingerprint"])
            for s in suites_by_workload["mcm-spec-all-b6-j1"]["suites"]]
    hardwired = [(s["axiom"], s["tests"], s["fingerprint"])
                 for s in builtin_suites]
    if spec != hardwired:
        problems.append("x86tso.mtm suites differ from the builtin x86tso")
    if enum["tlb_causality"]["tests"] != PAPER_TLB_CAUSALITY_TESTS:
        problems.append(f"tlb_causality has {enum['tlb_causality']['tests']}"
                        f" tests, the paper {PAPER_TLB_CAUSALITY_TESTS}")
    return problems


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="one workload; every workload when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop_active)
    signal.signal(signal.SIGINT, _stop_active)
    attempted = failed = 0
    report = {}
    try:
        build(["perfbench_runner", "perfbench_replay"] if args.trace
              else ["perfbench_runner"])
        if args.record:
            return record()
        reference = load_reference()
        workloads = [args.workload] if args.workload else \
            list(reference["workloads"])
        for workload in workloads:
            if workload not in reference["workloads"]:
                raise BenchError(f"unknown workload {workload}")
            if args.trace:
                tally, metrics = per_layer(workload, reference)
            else:
                tally, metrics = measure(workload, args.seed, args.seconds,
                                         reference)
            attempted += tally.attempted
            failed += tally.failed
            for name, (value, unit) in metrics.items():
                print(f"{workload} {name} = {value:.6g} {unit}", flush=True)
                # One workload reports plain metric names; all of them
                # prefix each name with its workload.
                key = name if args.workload else f"{workload}.{name}"
                report[key] = {"value": value, "unit": unit}
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log(f"perfbench: {error}")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
