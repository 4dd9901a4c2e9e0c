"""The repository benchmark: three served workloads, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-open --seed 1 --seconds 10 --trace 0

Workloads: ``search-open`` (open-loop one-shot searches on a Poisson
schedule), ``feedback-sessions`` (two users running the paper's
predict-then-feedback cycle on a shared Simplex Tree) and ``live-mixed``
(reads interleaved with inserts and deletes on a live VP-tree-indexed
corpus).  See ``workloads.py`` for what each drives and ``BENCHMARK.json``
for the metrics and bounds.

One run: build the seeded inputs (never timed); set the server up
:data:`SETUP_REPEATS` times, each time in a fresh child process
(``serve.py``), from its start until the first correct answers, and report
the median as ``setup_s``; measure the last one for ``--seconds``; stop
it; check every answer the workload defines as checkable.  Human-readable
lines go first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer ledger (``ledger.py``) with ``--trace 1``.
A traced run alternates traced and untraced slices of
:data:`TRACE_SLICE_S` so that it can report what recording costs.

The end-to-end times and rates are reported at a reference host speed.
The box is a few CPUs of a shared host, whose speed drifts by a fifth or
more over minutes, and every timing drifts with it.  A probe process
(``hostspeed.py``) on the server's CPU times a fixed unit of pure-Python
work all run long.  Each phase's figures are scaled by the median unit time
in that phase against :data:`PROBE_REFERENCE_MS`: ``setup_s`` by the set-up
phase, the window's figures by the window.  The probe runs no code of the
program, so a slower program still reads slower.  The figures as measured
are printed too.

Outputs go only to untracked paths: ``.perfbench_work/`` (the inputs
handed to the server, removed at exit) and, for traced runs,
``.perfbench_out/`` (the spans).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

#: BLAS thread pins, set before NumPy loads: one BLAS thread per process,
#: so the server's handler threads and the client threads never multiply
#: into cores x BLAS threads on a small box.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _variable in BLAS_THREAD_VARS:
    os.environ[_variable] = "1"

#: The server process runs on one CPU and this process (the load generator)
#: on another, so the client's own CPU time never queues behind the
#: server's.  On a single-CPU box both share it.
if hasattr(os, "sched_getaffinity"):
    _cpus = sorted(os.sched_getaffinity(0))
    CLIENT_CPU, SERVER_CPU = _cpus[0], _cpus[-1]
    os.sched_setaffinity(0, {CLIENT_CPU})
else:
    CLIENT_CPU = SERVER_CPU = None

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import inputs as workload_inputs  # noqa: E402
import ledger  # noqa: E402
from spans import Tracer  # noqa: E402
from repro.serving import BinaryCodec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TRACE_SLICE_S = 0.5
#: CPU ms of the host-speed probe's unit on the reference host; the
#: end-to-end timings are reported as they would read there.
PROBE_REFERENCE_MS = 3.5
#: Units of the metrics scaled to the reference host speed.
TIMED_UNITS = ("s", "ms", "1/s")
#: Seconds the server process may take to set up, or to stop and report.
SERVER_REPLY_TIMEOUT_S = 150.0


def end_child(process: subprocess.Popen, reader: threading.Thread) -> None:
    """End a child: closing its stdin makes it exit; kill it if it hangs."""
    try:
        process.stdin.close()
    except OSError:
        pass
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    reader.join(timeout=30)
    process.stdout.close()


class ServerProcess:
    """The child process running ``serve.py``, spoken to line by line."""

    def __init__(self, workload: str, inputs_path: str, trace: bool) -> None:
        cpu = "-1" if SERVER_CPU is None else str(SERVER_CPU)
        self.process = subprocess.Popen(
            [sys.executable, "-u", os.path.join(HERE, "serve.py"), workload, inputs_path, str(int(trace)), cpu],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._read_lines, daemon=True)
        self._reader.start()
        self._send_lock = threading.Lock()

    def _read_lines(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put("")

    def read(self) -> dict:
        try:
            line = self._lines.get(timeout=SERVER_REPLY_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("the server process did not answer in time") from None
        if not line:
            raise RuntimeError(f"the server process exited with code {self.process.wait()}")
        return json.loads(line)

    def send(self, command: str) -> None:
        with self._send_lock:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()

    def close(self) -> None:
        end_child(self.process, self._reader)


class HostSpeedProbe:
    """The child process running ``hostspeed.py`` on the server's CPU.

    Collects its ``(perf_counter, cpu_ms)`` samples for the whole run, so
    that each phase (set-up, window) can be scaled by the host speed seen
    during it.
    """

    def __init__(self) -> None:
        cpu = "-1" if SERVER_CPU is None else str(SERVER_CPU)
        self.process = subprocess.Popen(
            [sys.executable, "-u", os.path.join(HERE, "hostspeed.py"), cpu],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples: "list[tuple[float, float]]" = []
        self._reader = threading.Thread(target=self._read_samples, daemon=True)
        self._reader.start()

    def _read_samples(self) -> None:
        for line in self.process.stdout:
            at, cpu_ms = line.split()
            self.samples.append((float(at), float(cpu_ms)))

    def unit_ms(self, start: float, end: float) -> float:
        """Median CPU ms of the probe's unit between two ``perf_counter`` readings."""
        inside = [cpu_ms for at, cpu_ms in self.samples if start <= at <= end]
        if not inside:
            raise RuntimeError("the host-speed probe took no sample in a measured phase")
        return statistics.median(inside)

    def close(self) -> None:
        end_child(self.process, self._reader)


def at_reference_speed(values: dict, units: dict, unit_ms: float) -> dict:
    """Scale timed metrics to a host whose probe unit takes :data:`PROBE_REFERENCE_MS`.

    A slower host (a longer probe unit) stretches times and shrinks rates in
    the same proportion, so times are divided by the slowdown and rates
    multiplied by it; other units (ratios) are left as measured.
    """
    slowdown = unit_ms / PROBE_REFERENCE_MS
    scaled = dict(values)
    for name, value in values.items():
        if units.get(name) in ("s", "ms"):
            scaled[name] = value / slowdown
        elif units.get(name) == "1/s":
            scaled[name] = value * slowdown
    return scaled


class Probe:
    """Tracing switch shared by the workload driver and the server process.

    In a traced run a background thread flips recording every
    :data:`TRACE_SLICE_S` in both processes; ops record whether it was on
    when they started.  In an untraced run nothing is ever recorded.
    """

    def __init__(self, tracer: "Tracer | None", server: ServerProcess) -> None:
        self.tracing = tracer is not None
        self.tracer = tracer
        self.server = server
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def traced(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def wrap_request(self, name: str, function):
        if self.tracer is None:
            return function
        return self.tracer.wrap("client", name, function, request_root=True)

    def _set(self, enabled: bool) -> None:
        self.tracer.enabled = enabled
        self.server.send(f"trace {int(enabled)}")

    def _alternate(self) -> None:
        enabled = False
        while not self._stop.wait(TRACE_SLICE_S):
            enabled = not enabled
            self._set(enabled)

    def __enter__(self) -> "Probe":
        if self.tracing:
            self._thread = threading.Thread(target=self._alternate, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._set(False)


def environment_lines() -> "list[str]":
    pins = " ".join(f"{name}={os.environ.get(name)}" for name in BLAS_THREAD_VARS)
    return [
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}",
        f"blas pins: {pins}; client on cpu {CLIENT_CPU}, server on cpu {SERVER_CPU}",
    ]


def cpu_times() -> "list[int] | None":
    """Aggregate CPU jiffies from ``/proc/stat`` (``None`` where absent)."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after) -> "float | None":
    """Share of CPU time the hypervisor took away between two readings."""
    if before is None or after is None or len(before) < 8:
        return None
    spent = [late - early for early, late in zip(before, after)]
    return spent[7] / sum(spent) if sum(spent) else 0.0


def declared_units() -> "tuple[dict, dict]":
    """Units of the end-to-end and per-layer metrics ``BENCHMARK.json`` declares.

    The per-layer list must name exactly the ledger's metrics, so the file
    and the code cannot drift apart.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    end_to_end = {metric["name"]: metric["unit"] for metric in declared["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    if per_layer != {name: spec[0] for name, spec in ledger.METRICS.items()}:
        raise RuntimeError("BENCHMARK.json per_layer does not match ledger.METRICS")
    return end_to_end, per_layer


def median_setup(setups: "list[dict]") -> dict:
    return {key: statistics.median(setup[key] for setup in setups) for key in setups[0]}


def run(args) -> int:
    end_to_end_units, per_layer_units = declared_units()
    for line in environment_lines():
        print(line)
    inputs = workload_inputs.BUILDERS[args.workload](args.seed)
    workload = WORKLOADS[args.workload](inputs, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        BinaryCodec.encode = tracer.wrap("serving.codec", "serving.codec.encode", BinaryCodec.encode)
        BinaryCodec.decode = tracer.wrap("serving.codec", "serving.codec.decode", BinaryCodec.decode)
        from repro.serving import PooledServingClient

        checkout = PooledServingClient._checkout
        PooledServingClient._checkout = tracer.wrap("serving.pool", "serving.pool._checkout", checkout)

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=work_root)
    server = host = None
    try:
        host = HostSpeedProbe()
        inputs_path = os.path.join(work_dir, "inputs.npz")
        np.savez(inputs_path, **inputs)
        setups_start = time.perf_counter()
        setups = []
        warm_ok = True
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.close()
            start = time.perf_counter()
            server = ServerProcess(args.workload, inputs_path, args.trace)
            ready = server.read()
            listening = time.perf_counter()
            warm_ok = workload.warm_up(ready["port"]) and warm_ok
            answered = time.perf_counter()
            setups.append(
                {
                    "index_build_s": ready["index_build_s"],
                    "server_start_s": listening - start - ready["index_build_s"],
                    "warmup_s": answered - listening,
                    "setup_s": answered - start,
                }
            )
        server.send("go")
        cpu_before = cpu_times()
        client_cpu_before = time.process_time()
        window_start = time.perf_counter()
        with Probe(tracer, server) as probe:
            workload.measure(ready["port"], float(args.seconds), probe)
        steal = steal_share(cpu_before, cpu_times())
        client_cpu_s = time.process_time() - client_cpu_before
        window_end = time.perf_counter()
        window_s = window_end - window_start
        server.send("stop")
        final = server.read()
    finally:
        if host is not None:
            host.close()
        if server is not None:
            server.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)

    checks = workload.verify()
    checks["warm_up_answers_correct"] = warm_ok
    checks.update(final["checks"])
    setup = median_setup(setups)
    measured, named = workload.metrics()
    setup_unit_ms = host.unit_ms(setups_start, window_start)
    window_unit_ms = host.unit_ms(window_start, window_end)
    end_to_end = at_reference_speed(measured, end_to_end_units, window_unit_ms)
    end_to_end.update(at_reference_speed({"setup_s": setup["setup_s"]}, end_to_end_units, setup_unit_ms))
    attempted = len(workload.ops)
    failed = sum(not op.ok for op in workload.ops)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"ops attempted={attempted} succeeded={attempted - failed} failed={failed}")
    if steal is not None:
        print(f"cpu steal during the window: {steal:.1%}")
    # The load generator runs on its own CPU; its share says how busy it was.
    print(
        f"cpu busy during the window: client {client_cpu_s / window_s:.1%} of cpu {CLIENT_CPU}, "
        f"server {final['cpu_s'] / window_s:.1%} of cpu {SERVER_CPU}"
    )
    print(
        f"host-speed probe unit: {setup_unit_ms:.4f} ms during set-up, {window_unit_ms:.4f} ms during "
        f"the window (reference {PROBE_REFERENCE_MS} ms; it takes ~2% of cpu {SERVER_CPU})"
    )
    for name, passed in checks.items():
        print(f"check {name}: {'pass' if passed else 'FAIL'}")
    print("setup (median of %d): " % SETUP_REPEATS + ", ".join(f"{k}={v:.4f}" for k, v in setup.items()))
    for line in workload.rung_lines():
        print(line)
    for name, values in workload.per_cycle.items():
        print(f"{name} per cycle: " + " ".join(f"{value:.4g}" for value in values))
    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"as measured: setup_s = {setup['setup_s']:.6g} s, " + ", ".join(
        f"{name} = {value:.6g}" for name, value in measured.items()
    ))
    for name, unit in end_to_end_units.items():
        scaled = "  (at the reference host speed)" if unit in TIMED_UNITS else ""
        print(f"[end-to-end] {name} = {end_to_end[name]:.6g} {unit}{scaled}")

    if args.trace:
        counts = workload.layer_counts()
        # Service time (sent to answered), so client-side queueing in the
        # open loop does not decide which slice looks slower.
        traced = [op.end - op.sent for op in workload.ops if op.traced and op.ok]
        untraced = [op.end - op.sent for op in workload.ops if not op.traced and op.ok]
        if traced and untraced:
            counts["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced)) * 1e3
        layer_metrics, lines = ledger.compute(tracer.spans, final["spans"], final["stats"], counts, setup)
        for line in lines:
            print(line)
        for name, (unit, _, moves, where) in ledger.METRICS.items():
            print(f"[per-layer] {name} = {layer_metrics[name]:.6g} {unit}  (moves {moves}; most work on {where})")
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"), "w") as handle:
            json.dump({"client": tracer.spans, "server": final["spans"]}, handle)
        reported = {name: {"value": layer_metrics[name], "unit": unit} for name, unit in per_layer_units.items()}
    else:
        reported = {name: {"value": end_to_end[name], "unit": unit} for name, unit in end_to_end_units.items()}

    print(
        json.dumps(
            {
                "correct": all(checks.values()),
                "attempted": attempted,
                "failed": failed,
                "metrics": reported,
            }
        )
    )
    return 0


def main(argv=None) -> int:
    # A terminated run still takes its finally blocks: the server process
    # is stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
