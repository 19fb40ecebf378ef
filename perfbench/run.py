"""gupab benchmark: seeded CLI workloads, checked against analytic references.

    python3 perfbench/run.py --workload phase-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client drives ``gupab.cli_io.main(argv)`` in this process in a closed
loop: each command starts after the previous one returns. A run sets up
(fresh-interpreter import, input generation, warm-up) several times, then
sends passes over the workload's deck: the first pass whole, then on until
--seconds have passed. It checks every output with ``oracle`` and prints
one JSON object as its last line. Times are rescaled to a reference host
speed measured next to each call (see ``Clock``); the wall times are in the
report too.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(see tracer.py) and the tracing overhead. Inputs, per-run reports and spans
go to .bench_out/ at the root of the checkout. See README.md in this
directory for the workloads and the metric definitions.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread unless the caller asks for more, capped at the cores this process may use: a second
# thread competes with the host's other tenants, and the single-threaded reference timings in Clock
# would no longer follow it. numpy reads this when it loads.
NPROC = len(os.sched_getaffinity(0))
try:
    _threads = int(os.environ.get("OPENBLAS_NUM_THREADS") or 1)
except ValueError:
    _threads = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(_threads, NPROC)))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
COLD_START_REPEATS = 9
TAIL_BEYOND = 10
# What each calibration takes at the reference speed: rescaled times read as wall times on a host running
# at that speed (a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4, at its typical speed).
KERNEL_REF_NS = 1_500_000
CHILD_REF_NS = 150_000_000
CAL_WARMUP = 20


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, unusable environment)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_gupab():
    if not (SRC / "gupab" / "__init__.py").is_file():
        raise BenchmarkError(f"no gupab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gupab
    import gupab.cli_io

    if Path(gupab.__file__).resolve().parent != (SRC / "gupab").resolve():
        raise BenchmarkError(f"imported gupab from {gupab.__file__}, not from {SRC}")
    return gupab


def calibration_kernel():
    """Fixed interpreter work with small numpy calls, the kind gupab's per-node loops do."""
    vector, matrix = numpy.array([0.3, 0.2, 0.1]), numpy.eye(4)
    total = 0.0
    for i in range(400):
        x = math.sin(i * 0.01) * math.sqrt(i + 1.0)
        total += x
        if i % 8 == 0:
            total += float(numpy.cross(vector, vector + x) @ vector) + float((matrix * x).trace())
    return total


def kernel_calibration():
    """Wall time, in ns, of one run of calibration_kernel in this process."""
    start = perf_counter_ns()
    calibration_kernel()
    return perf_counter_ns() - start


def child_calibration():
    """Wall time, in ns, of a fresh interpreter that imports numpy and exits."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT, check=True, capture_output=True,
                   timeout=120)
    return perf_counter_ns() - start


class Clock:
    """Wall time of a call, and the same time rescaled to the reference host speed.

    The speed of a shared host drifts by tens of percent within seconds, and
    a call's wall time drifts with it. The clock runs a fixed reference task
    after every call it times and divides the call's wall time by the mean
    of the reference's times just before and just after it, times
    ``reference_ns``. A change in gupab moves the rescaled time as it moves
    the wall time, while the host's drift cancels. In-process calls use
    ``kernel_calibration``; fresh processes use ``child_calibration``, since
    process start-up and imports drift apart from interpreter speed.
    """

    def __init__(self, calibrate, reference_ns, warmup=0):
        self.calibrate, self.reference_ns = calibrate, reference_ns
        for _ in range(warmup):
            calibrate()
        self.last = calibrate()
        self.calibration_ns = []

    def time(self, call):
        """Return (call's result, wall ns, rescaled ns)."""
        start = perf_counter_ns()
        result = call()
        ns = perf_counter_ns() - start
        after = self.calibrate()
        self.calibration_ns.append(after)
        scaled = ns * 2.0 * self.reference_ns / (self.last + after)
        self.last = after
        return result, ns, scaled


def execute(main, argv, clock, tracer=None, cmd_id=None):
    """Run one CLI command in process; return (exit code or None on a crash, stdout, stderr, ns, rescaled ns)."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return tracer.command(cmd_id, lambda: main(argv)) if tracer else main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                return exc.code
            except Exception:  # a traceback escaping the CLI is a failed command, not a failed benchmark
                err.write(traceback.format_exc())
                return None

    code, ns, scaled = clock.time(call)
    return code, out.getvalue(), err.getvalue(), ns, scaled


class Run:
    """Outcomes of every command sent in one run.

    ``attempted`` and ``failed`` count the deck's distinct commands: a command
    fails when any of its executions fails, so both counts depend on the seed
    and the program, not on how many passes fit in the run.
    """

    def __init__(self, commands, argvs):
        self.commands, self.argvs = commands, argvs
        self.latency_ns = [[] for _ in commands]
        self.scaled_ns = [[] for _ in commands]
        self.digests = [None] * len(commands)
        self.executions = 0
        self.failures = {}  # command index -> [reason of its first failure, failing executions]
        self.integrity = []  # problems that make the run's figures untrustworthy
        self.pass_ns = []
        self.checksum = hashlib.sha256()

    def send_pass(self, main, clock, tracer=None, tag="pass", deadline=None):
        """Send the deck once, or until perf_counter_ns() passes deadline."""
        start = perf_counter_ns()
        for index, (command, argv) in enumerate(zip(self.commands, self.argvs)):
            if deadline is not None and perf_counter_ns() >= deadline:
                break
            code, stdout, stderr, ns, scaled = execute(main, argv, clock, tracer, f"{tag}:{index}")
            self.latency_ns[index].append(ns)
            self.scaled_ns[index].append(scaled)
            self.executions += 1
            if code is None:
                reasons = [f"uncaught exception: {stderr.strip().splitlines()[-1]}"]
            else:
                reasons = oracle.check(command, code, stdout, stderr)
            if reasons:
                self.failures.setdefault(index, [reasons[0], 0])[1] += 1
            digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
            if self.digests[index] is None:
                self.digests[index] = digest
                self.checksum.update(f"{index}:{digest}\n".encode())
            elif self.digests[index] != digest:
                self.integrity.append(f"command {index} ({command.label}) gave different output on a later pass")
        self.pass_ns.append(perf_counter_ns() - start)

    @property
    def attempted(self):
        return len(self.commands)

    @property
    def failed(self):
        return len(self.failures)


def setup(gupab, workload, seed, directory, repeats, clock, child_clock):
    """Set up `repeats` times; return (median s, median rescaled s, commands, argvs, input hash, problems)."""
    problems = []
    times, scaled_times, hashes = [], [], []

    def prepare():
        commands = workloads.deck(workload, seed)
        return commands, workloads.input_hash(commands), workloads.materialize(commands, directory / "inputs")

    for _ in range(repeats):
        steps = [child_clock.time(lambda: subprocess.run([sys.executable, "-c", "import gupab.cli_io"], env=child_env(),
                                                         cwd=ROOT, check=True, capture_output=True, timeout=120))]
        steps.append(clock.time(prepare))
        commands, digest, argvs = steps[-1][0]
        hashes.append(digest)
        warm = workloads.warmup_deck(workload)
        for command, argv in zip(warm, workloads.materialize(warm, directory / "warmup")):
            code, _, stderr, ns, scaled = execute(gupab.cli_io.main, argv, clock)
            steps.append((None, ns, scaled))
            if code != command.expect_exit:
                problems.append(f"{command.label} exited {code}: {stderr.strip()}")
        times.append(sum(step[1] for step in steps) / 1e9)
        scaled_times.append(sum(step[2] for step in steps) / 1e9)
    if len(set(hashes)) != 1:
        problems.append("the same seed generated different inputs")
    if workloads.input_hash(workloads.deck(workload, seed + 1)) == hashes[0]:
        problems.append("seeds differing by one generated identical inputs")
    return statistics.median(times), statistics.median(scaled_times), commands, argvs, hashes[0], problems


def cold_start_ms(directory, child_clock):
    """Median (wall, rescaled) ms of a fresh `python -m gupab phase` on the README config."""
    [argv] = workloads.materialize([workloads.Command("readme", ["phase", "-c", "CONFIG"], workloads.README_CONFIG)], directory)
    times, scaled_times, problems = [], [], []
    for _ in range(COLD_START_REPEATS):
        proc, ns, scaled = child_clock.time(lambda: subprocess.run([sys.executable, "-m", "gupab", *argv],
                                                                   env=child_env(), cwd=ROOT, capture_output=True,
                                                                   text=True, timeout=120))
        times.append(ns / 1e6)
        scaled_times.append(scaled / 1e6)
        reasons = [f"exit {proc.returncode}"] if proc.returncode else oracle.check_phase(workloads.README_CONFIG, proc.stdout)
        problems += [f"cold start: {r}" for r in reasons]
    return statistics.median(times), statistics.median(scaled_times), problems


def throughput(samples):
    """Deck commands per second of a pass that takes each command's median time; output checks are left out."""
    return len(samples) / (sum(statistics.median(ns) for ns in samples) / 1e9)


def latency_summary(samples):
    """p50 and the highest percentile with TAIL_BEYOND commands beyond it, over per-command medians."""
    per_command = sorted(statistics.median(ns) / 1e6 for ns in samples)
    n = len(per_command)
    return {
        "latency_p50_ms": statistics.median(per_command),
        "latency_tail_ms": per_command[n - 1 - TAIL_BEYOND],
        "latency_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "latency_samples": n,
    }


def tracing_overhead(run, traced_passes):
    """Median over commands of traced over untraced rescaled latency, minus 1."""
    ratios = []
    for samples in run.scaled_ns:
        traced = [ns for k, ns in enumerate(samples) if k in traced_passes]
        untraced = [ns for k, ns in enumerate(samples) if k not in traced_passes]
        ratios.append(statistics.median(traced) / statistics.median(untraced))
    return statistics.median(ratios) - 1.0


def environment(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 has no mode argument
        blas = {}
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((SRC / "gupab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": cpu,
        "nproc": NPROC,
        "seed": seed,
    }


def measure(gupab, args, directory):
    clock = Clock(kernel_calibration, KERNEL_REF_NS, CAL_WARMUP)
    child_clock = Clock(child_calibration, CHILD_REF_NS)
    setup_s, setup_scaled_s, commands, argvs, digest, problems = setup(
        gupab, args.workload, args.seed, directory, 1 if args.trace else SETUP_REPEATS, clock, child_clock)
    run = Run(commands, argvs)
    run.integrity += problems
    main = gupab.cli_io.main
    report = {"workload": args.workload, "input_sha256": digest}
    if not args.trace:
        # every command runs at least once; after the first pass the run stops when --seconds are up
        deadline = perf_counter_ns() + int(args.seconds * 1e9)
        run.send_pass(main, clock)
        while perf_counter_ns() < deadline:
            run.send_pass(main, clock, deadline=deadline)
        latency = latency_summary(run.scaled_ns)
        wall = latency_summary(run.latency_ns)
        cold_ms, cold_scaled_ms, problems = cold_start_ms(directory / "cold", child_clock)
        run.integrity += problems
        metrics = {
            "setup_s": setup_scaled_s,
            "throughput_ops_per_s": throughput(run.scaled_ns),
            "latency_p50_ms": latency["latency_p50_ms"],
            "latency_tail_ms": latency["latency_tail_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cold_start_ms": cold_scaled_ms,
        }
        report["extra"] = {
            "failed_ops_ratio": run.failed / run.attempted,
            "executions": run.executions,
            "latency_tail_percentile": latency["latency_tail_percentile"],
            "latency_samples": latency["latency_samples"],
            "wall.setup_s": setup_s,
            "wall.throughput_ops_per_s": throughput(run.latency_ns),
            "wall.latency_p50_ms": wall["latency_p50_ms"],
            "wall.latency_tail_ms": wall["latency_tail_ms"],
            "wall.cold_start_ms": cold_ms,
            "calibration.kernel_us.median": statistics.median(clock.calibration_ns) / 1e3,
            "calibration.child_ms.median": statistics.median(child_clock.calibration_ns) / 1e6,
        }
    else:
        tracer = Tracer()
        traced_passes = []  # pass indices sent with the tracer installed
        while sum(run.pass_ns) < args.seconds * 1e9:
            # untraced and traced passes alternate, and each pair swaps which goes first
            for traced in (False, True) if len(traced_passes) % 2 == 0 else (True, False):
                if traced:
                    traced_passes.append(len(run.pass_ns))
                    tracer.install(gupab)
                    try:
                        run.send_pass(main, clock, tracer, f"pass{len(run.pass_ns)}")
                    finally:
                        tracer.uninstall()
                else:
                    run.send_pass(main, clock)
        probes = workloads.probe_deck()
        tracer.install(gupab)
        try:
            for index, (command, argv) in enumerate(zip(probes, workloads.materialize(probes, directory / "probe"))):
                code, stdout, stderr, _, _ = execute(main, argv, clock, tracer, f"probe:{index}")
                run.integrity += [f"probe {command.label}: {r}" for r in oracle.check(command, code, stdout, stderr)]
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, lambda cmd: not cmd.startswith("probe"))
        from_probe = layer_metrics(tracer, lambda cmd: cmd.startswith("probe"))
        report["probe_metrics"] = sorted(k for k, v in metrics.items() if v is None and from_probe[k] is not None)
        metrics = {k: (v if v is not None else from_probe[k] or 0.0) for k, v in metrics.items()}
        metrics["trace.overhead_ratio"] = tracing_overhead(run, traced_passes)
        report["hooks_missing"] = tracer.missing
        report["extra"] = {"executions": run.executions}
        tracer.write(directory / "spans.jsonl")
    report.update({
        "passes": len(run.pass_ns),
        "measured_s": sum(run.pass_ns) / 1e9,
        "output_sha256": run.checksum.hexdigest(),
        "commands": [{"label": command.label, "executions": len(ns), "median_ms": statistics.median(ns) / 1e6,
                      "wall_median_ms": statistics.median(wall) / 1e6}
                     for command, ns, wall in zip(run.commands, run.scaled_ns, run.latency_ns)],
        "failures": [{"index": index, "label": run.commands[index].label, "reason": reason, "executions": count}
                     for index, (reason, count) in sorted(run.failures.items())],
        "integrity_problems": run.integrity,
    })
    return run, metrics, report


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args):
    spec = load_spec()
    gupab = import_gupab()
    directory = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    run, values, report = measure(gupab, args, directory)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report["environment"] = environment(args.seed)
    report["metrics"] = metrics
    (directory / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"gupab benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={report['passes']} measured={report['measured_s']:.2f}s")
    for name, metric in metrics.items():
        print(f"  {name:52s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in report.get("extra", {}).items():
        print(f"  {name:52s} {value:14.6g}")
    for failure in report["failures"]:
        print(f"  failed: command {failure['index']} {failure['label']} "
              f"(x{failure['executions']}): {failure['reason']}")
    for problem in run.integrity:
        print(f"  integrity: {problem}")
    print(f"  input sha256 {report['input_sha256']}  output sha256 {report['output_sha256']}")
    print(f"  report: {directory / 'report.json'}")
    result = {"correct": not run.integrity, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))


def run_all(args):
    """Run every workload in its own process and print one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            raise BenchmarkError(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_one(args)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
