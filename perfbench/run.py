"""The capow benchmark: a loopback ``capow serve`` under named workloads.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload steady-legit --seed 1 --seconds 45 --trace 0

Each run trains the fixed roster's bundle, draws its traffic plan from
``--seed``, computes every request's reference difficulty, and then
starts ``python -m capow.cli serve`` on 127.0.0.1 and drives it from this
process: a fixed prefix of sessions, then a window of ``--seconds``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes the
same untraced run for reference, repeats it against
``serve_traced.py`` (the same server with span recorders around each
layer), and prints the per-layer metrics. Both print summary lines and
then, as the last line, one JSON object; the exit code is 1 when the
correctness gate fails.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    from capow import pow_core
    from capow.errors import ProtocolError, SolveTimeout
    from capow.protocol import (AcceptMsg, ChallengeMsg, RejectMsg, SolutionMsg, decode_message,
                                encode_message, read_frame, write_frame)
except ModuleNotFoundError as exc:
    if exc.name != "capow":
        raise
    print(f"perfbench: no capow package under {SRC}; run from the root of a checkout", file=sys.stderr)
    sys.exit(2)

import workloads
from outcomes import (NO_REPLY, REASONS, Record, attacker_work_ratio, count_reasons, exchange_failed,
                      gate_errors, reference_difficulties, session_ok)
from spans import DECIDING_MODELS, Tracer, read_spans

SETUP_SPAWNS = 12  # timed spawns per run; one more, untimed, first warms the file cache
LAUNCH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
IO_TIMEOUT_S = 20.0
SOLVE_DEADLINE_S = 20.0
RUN_TIMEOUT_S = 170
CLK_TCK = os.sysconf("SC_CLK_TCK")

END_TO_END = {
    "setup_s": "s",
    "sessions_per_s": "1/s",
    "legit_p50_ms": "ms",
    "legit_p95_ms": "ms",
    "server_cpu_us_per_session": "us",
    "server_rss_mb": "MB",
    "ok_frac": "ratio",
    "attacker_work_ratio": "ratio",
}

# (metric base, span name, "total" or "self"); each gives .p50, .p99 (us) and .n
SERVER_SPANS = [
    ("protocol.read_frame_us", "protocol.read_frame", "total"),
    ("protocol.decode_us", "protocol.decode_message", "total"),
    ("protocol.encode_us", "protocol.encode_message", "total"),
    ("protocol.handle_request_us", "protocol.GateServer.handle_request", "total"),
    ("protocol.handle_request_self_us", "protocol.GateServer.handle_request", "self"),
    ("protocol.score_request_self_us", "protocol.GateServer.score_request", "self"),
    ("flow_ingest.extract_us", "flow_ingest.extract_context", "total"),
    ("cluster_models.dabr_us", "cluster_models.score_dabr", "total"),
    ("cluster_models.tam_us", "cluster_models.score_tam", "total"),
    ("cluster_models.flow_us", "cluster_models.score_flow", "total"),
    ("cluster_models.fuse_us", "cluster_models.fuse_scores", "total"),
    ("policy_engine.map_us", "policy_engine.map_difficulty", "total"),
    ("policy_engine.request_rng_us", "policy_engine.request_rng", "total"),
    ("pow_core.issue_us", "pow_core.ChallengeRegistry.issue", "total"),
    ("pow_core.verify_us", "pow_core.ChallengeRegistry.verify", "total"),
    ("protocol.handle_solution_us", "protocol.GateServer.handle_solution", "total"),
    ("protocol.enqueue_us", "protocol.ServerQueue.try_enqueue", "total"),
]
CLIENT_SPANS = [
    ("pow_core.solve_us", "pow_core.solve", "total"),
    ("protocol.client_session_us", "protocol.client_session", "total"),
    ("protocol.client_residual_us", "protocol.client_session", "self"),
]
DIFFICULTIES = range(12)  # linear charges 0..10, error_range up to ceil(10 + epsilon)
TRANSPORT_SPANS = ("protocol.read_frame",)


PER_LAYER = {
    **{f"{base}.{stat}": unit
       for base, _, _ in SERVER_SPANS + CLIENT_SPANS
       for stat, unit in (("p50", "us"), ("p99", "us"), ("n", "count"))},
    "protocol.server_residual_us": "us",
    "protocol.queue_depth": "count",
    "protocol.overloaded": "count",
    "protocol.events_len": "count",
    "cluster_models.tam_known_frac": "ratio",
    **{f"cluster_models.decided.{m}": "count" for m in DECIDING_MODELS},
    **{f"policy_engine.difficulty.{d}": "count" for d in DIFFICULTIES},
    "pow_core.outstanding": "count",
    "pow_core.verify_accept_frac": "ratio",
    "pow_core.solve_mhash_per_s": "Mhash/s",
    "persistence.load_bundle_s": "s",
    "policy_engine.load_policy_s": "s",
    "bench.client_cpu_us_per_session": "us",
    "bench.gen_lag_p99_ms": "ms",
    "bench.legit_p99_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    **{f"bench.outcome.{reason}": "count" for reason in REASONS},
}


# ── processes ───────────────────────────────────────────────────────


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU of a process, all threads, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for process {pid}")


class ServerProcess:
    """One gate process. Its stderr (an INFO line per request) goes to a file."""

    def __init__(self, argv: list[str], env: dict[str, str], log_path: Path) -> None:
        self._buf = b""
        with open(log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                         stderr=log, env=env, cwd=ROOT, bufsize=0)
        try:
            line = self.readline()
            self.ready_s = time.perf_counter() - started
            host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
            self.address = (host, int(port))
        except BaseException:
            self.stop(signal.SIGKILL)
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def readline(self, timeout_s: float = LAUNCH_TIMEOUT_S) -> str:
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError(f"server {self.pid} printed no line within {timeout_s} s")
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server {self.pid} exited with {self.proc.wait()}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def mark(self) -> None:
        """Ask the traced launcher to mark the span buffer, and wait until it has."""
        os.kill(self.pid, signal.SIGUSR1)
        line = self.readline()
        if not line.startswith("perfbench: marked"):
            raise RuntimeError(f"unexpected launcher output {line!r}")

    def stop(self, sig: int = signal.SIGINT) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


# ── client ──────────────────────────────────────────────────────────


def run_session(address, request, abandon: bool, solve) -> tuple[str, int | None, int | None]:
    """One admission round trip; returns (reason, difficulty, queue position).

    Built from the public ``protocol`` and ``pow_core`` calls, like
    ``protocol.client_session``, but it can hang up after the CHALLENGE
    and it keeps the ACCEPT's queue position.
    """
    difficulty = None
    try:
        with socket.create_connection(address, timeout=IO_TIMEOUT_S) as sock:
            write_frame(sock, encode_message(request))
            reply = decode_message(read_frame(sock))
            if isinstance(reply, RejectMsg):
                return reply.reason.label, None, None
            if not isinstance(reply, ChallengeMsg):
                return "transport", None, None
            difficulty = reply.difficulty
            if abandon:
                return "challenged", difficulty, None
            challenge = pow_core.Challenge(user_id=request.user_id.encode("utf-8"), issue_ms=reply.issue_ms,
                                           seed=reply.seed, difficulty=reply.difficulty,
                                           expiry_ms=reply.expiry_ms)
            solution = solve(challenge, deadline_s=SOLVE_DEADLINE_S)
            write_frame(sock, encode_message(SolutionMsg(solution.seed_digest, solution.nonce)))
            final = decode_message(read_frame(sock))
            if isinstance(final, AcceptMsg):
                return "admitted", difficulty, final.queue_position
            if isinstance(final, RejectMsg):
                return final.reason.label, difficulty, None
            return "transport", difficulty, None
    except (TimeoutError, SolveTimeout):
        return "timeout", difficulty, None
    except (OSError, ProtocolError):
        return "transport", difficulty, None


class Client:
    """Sends a plan's sessions on ``connections`` threads, one connection each."""

    def __init__(self, address, plan, tracer=None) -> None:
        self.address = address
        self.plan = plan
        self.tracer = tracer
        self.session = run_session
        self.solve = pow_core.solve
        if tracer is not None:
            self.session = tracer.wrap("protocol.client_session", run_session)
            self.solve = tracer.wrap("pow_core.solve", pow_core.solve, lambda result, args: result.attempts)

    def one(self, session, due: float | None = None) -> Record:
        if self.tracer is not None:
            self.tracer.begin_session()
        start = time.perf_counter()
        reason, difficulty, position = self.session(
            self.address, self.plan.requests[session.index], session.role == workloads.FLOOD, self.solve)
        end = time.perf_counter()
        origin = start if due is None else due
        lag = 0.0 if due is None else start - due
        return Record(session.role, session.index, reason, difficulty, position, end - origin, lag, end)

    def closed(self, sessions, deadline: float | None = None) -> list:
        """Closed loop: each connection sends its next session when the last one ends.

        Without a deadline every session is sent once; with one, the
        sessions are cycled until the deadline passes.
        """
        records: list = []
        source = itertools.cycle(sessions) if deadline is not None else iter(sessions)
        lock = threading.Lock()

        def worker() -> None:
            while True:
                with lock:
                    if deadline is not None and time.perf_counter() >= deadline:
                        return
                    session = next(source, None)
                if session is None:
                    return
                records.append(self.one(session))

        _run_threads([worker] * self.plan.connections)
        return records

    def open(self, lanes) -> list:
        """Open loop: each lane sends its sessions at their due times, late or not."""
        records: list = []
        t0 = time.perf_counter() + 0.05

        def lane(items) -> None:
            for due, session in items:
                at = t0 + due
                wait = at - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                records.append(self.one(session, at))

        _run_threads([lambda items=items: lane(items) for items in lanes])
        return records


def _run_threads(targets) -> None:
    errors: list[BaseException] = []

    def guarded(target) -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,), daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(RUN_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")
    if errors:
        raise errors[0]


# ── one server's run ────────────────────────────────────────────────


@dataclass
class PhaseResult:
    prefix: list
    window: list
    window_s: float
    server_cpu_s: float
    client_cpu_s: float
    rss_mb: float  # after the sessions the seed fixes; see fixed_records
    server_meta: dict | None = None
    server_prefix_spans: list = field(default_factory=list)
    server_window_spans: list = field(default_factory=list)
    client_spans: list = field(default_factory=list)

    @property
    def records(self) -> list:
        return self.prefix + self.window

    @property
    def cpu_us_per_session(self) -> float:
        return self.server_cpu_s * 1e6 / len(self.window)


def serve_args(work: Path, plan) -> list[str]:
    return ["serve", "--models", str(work / "bundle"), "--policy", str(work / f"{plan.policy}.kv"),
            "--listen", "127.0.0.1:0"]


def server_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(work: Path, plan, spawns: int) -> list[float]:
    """Spawn-to-listening times of the untraced server, each stopped once it listens."""
    argv = [sys.executable, "-m", "capow.cli", *serve_args(work, plan)]
    samples = []
    for _ in range(spawns):
        server = ServerProcess(argv, server_env(), work / "setup.log")
        server.stop(signal.SIGTERM)
        samples.append(server.ready_s)
    return samples


def reference_for(work: Path, plan) -> list[int]:
    """Write the plan's policy file and compute every request's reference difficulty."""
    policy_path = work / f"{plan.policy}.kv"
    policy_path.write_text(workloads.POLICIES[plan.policy], encoding="utf-8")
    return reference_difficulties(work / "bundle", policy_path, plan.requests)


def run_phase(work: Path, plan, seconds: int, *, traced: bool) -> PhaseResult:
    """Start a server, send the prefix, then measure one window against it."""
    argv = [sys.executable, "-m", "capow.cli", *serve_args(work, plan)]
    if traced:
        argv = [sys.executable, str(HERE / "serve_traced.py"), str(work / "spans"), *serve_args(work, plan)]
    server = ServerProcess(argv, server_env(), work / "serve.log")
    tracer = Tracer(time.perf_counter_ns) if traced else None
    try:
        prefix = Client(server.address, plan).closed(plan.prefix)
        # RSS after a fixed number of sessions, so a server that serves more
        # of a closed-loop window is not charged for the state those add
        rss = proc_rss_mb(server.pid)
        if traced:
            server.mark()
        client = Client(server.address, plan, tracer)
        # keep the load generator's own collector pauses out of the window
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            cpu0, ccpu0 = proc_cpu_s(server.pid), proc_cpu_s(os.getpid())
            t0 = time.perf_counter()
            window = client.open(plan.lanes) if plan.open_loop else client.closed(plan.pool, t0 + seconds)
            window_s = time.perf_counter() - t0
            cpu1, ccpu1 = proc_cpu_s(server.pid), proc_cpu_s(os.getpid())
        finally:
            gc.enable()
            gc.unfreeze()
        if plan.open_loop:
            rss = proc_rss_mb(server.pid)
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code}; see its log")
    result = PhaseResult(prefix, window, window_s, cpu1 - cpu0, ccpu1 - ccpu0, rss)
    if traced:
        meta = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        result.server_meta = meta
        buf = (work / "spans.bin").read_bytes()
        mark = meta["marks"][0]
        result.server_prefix_spans = read_spans(meta["names"], buf, 0, mark)
        result.server_window_spans = read_spans(meta["names"], buf, mark)
        result.client_spans = read_spans(tracer.names, tracer.buf)
    return result


# ── metrics ─────────────────────────────────────────────────────────


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def fixed_records(plan, result: PhaseResult) -> list:
    """The sessions whose content and count the seed fixes: the prefix, and an open-loop window."""
    return result.records if plan.open_loop else result.prefix


def chunked_percentile(records, q: float) -> float:
    """Median, over consecutive runs of sessions, of each run's q-th latency percentile (ms).

    Each run holds just enough sessions to leave ten beyond its
    percentile, so one stalled stretch of the window cannot set the
    whole run's tail.
    """
    size = math.ceil(10 / (1 - q / 100.0))
    ordered = [r.latency_s * 1000.0 for r in sorted(records, key=lambda r: r.end_s)]
    chunks = [ordered[i:i + size] for i in range(0, len(ordered) - size + 1, size)]
    if not chunks:
        print(f"perfbench: warning: p{q:g} from only {len(ordered)} sessions", file=sys.stderr)
        chunks = [ordered]
    return statistics.median(percentile(c, q) for c in chunks)


def end_to_end(plan, result: PhaseResult, setup: list[float]) -> dict[str, float]:
    answered = [r for r in result.window if r.reason not in NO_REPLY]
    legit = [r for r in answered if r.role == workloads.LEGIT]
    fixed = fixed_records(plan, result)
    return {
        "setup_s": statistics.median(setup),
        "sessions_per_s": len(answered) / result.window_s,
        "legit_p50_ms": statistics.median(r.latency_s * 1000.0 for r in legit),
        "legit_p95_ms": chunked_percentile(legit, 95),
        "server_cpu_us_per_session": result.cpu_us_per_session,
        "server_rss_mb": result.rss_mb,
        "ok_frac": sum(map(session_ok, fixed)) / len(fixed),
        "attacker_work_ratio": attacker_work_ratio(fixed),
    }


def per_layer(plan, ref: PhaseResult, traced: PhaseResult) -> dict[str, float]:
    meta = traced.server_meta
    window = traced.server_window_spans
    fixed = traced.server_prefix_spans + (window if plan.open_loop else [])
    out: dict[str, float] = {}

    def add_spans(spans, table) -> None:
        for base, name, kind in table:
            values = [(s.total_ns if kind == "total" else s.self_ns) / 1000.0 for s in spans if s.name == name]
            out[f"{base}.p50"] = statistics.median(values) if values else 0.0
            out[f"{base}.p99"] = percentile(values, 99)
            out[f"{base}.n"] = len(values)

    def values(spans, name) -> list[int]:
        return [s.value for s in spans if s.name == name]

    add_spans(window, SERVER_SPANS)
    add_spans(traced.client_spans, CLIENT_SPANS)

    # both sides from the traced run, so the recorders' own cost is not subtracted from the residual
    traced_us = sum(s.total_ns for s in window if s.depth == 0 and s.name not in TRANSPORT_SPANS) / 1000.0
    out["protocol.server_residual_us"] = traced.cpu_us_per_session - traced_us / len(traced.window)
    out["bench.trace_overhead_frac"] = traced.cpu_us_per_session / ref.cpu_us_per_session - 1.0

    state = meta["state"]
    out["protocol.queue_depth"] = state["queue_depth"]
    out["protocol.events_len"] = state["events_len"]
    out["pow_core.outstanding"] = state["outstanding"]
    out["protocol.overloaded"] = values(fixed, "protocol.ServerQueue.try_enqueue").count(0)
    known = values(fixed, "cluster_models.score_tam")
    out["cluster_models.tam_known_frac"] = sum(known) / len(known) if known else 0.0
    decided = values(fixed, "cluster_models.fuse_scores")
    for i, model in enumerate(DECIDING_MODELS):
        out[f"cluster_models.decided.{model}"] = decided.count(i)
    charged = values(fixed, "policy_engine.map_difficulty")
    for d in DIFFICULTIES:
        out[f"policy_engine.difficulty.{d}"] = charged.count(d)
    accepted = values(fixed, "pow_core.ChallengeRegistry.verify")
    out["pow_core.verify_accept_frac"] = sum(accepted) / len(accepted) if accepted else 0.0

    solves = [s for s in traced.client_spans if s.name == "pow_core.solve"]
    solve_ns = sum(s.total_ns for s in solves)
    out["pow_core.solve_mhash_per_s"] = sum(s.value for s in solves) * 1e3 / solve_ns if solve_ns else 0.0
    out["persistence.load_bundle_s"] = meta["load_s"]["persistence.load_bundle_s"]
    out["policy_engine.load_policy_s"] = meta["load_s"]["policy_engine.load_policy_s"]

    out["bench.client_cpu_us_per_session"] = ref.client_cpu_s * 1e6 / len(ref.window)
    out["bench.gen_lag_p99_ms"] = percentile([r.lag_s * 1000.0 for r in ref.window], 99)
    out["bench.legit_p99_ms"] = chunked_percentile(
        [r for r in ref.window if r.role == workloads.LEGIT and r.reason not in NO_REPLY], 99)
    for reason, n in count_reasons(ref.records).items():
        out[f"bench.outcome.{reason}"] = n
    return out


# ── entry point ─────────────────────────────────────────────────────


def _on_alarm(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("steady-legit", "abandon-flood", "priced-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        roster = workloads.build_roster()
        bundle_dir = workloads.build_bundle(roster, work)
        if args.trace:
            # the untraced reference and the traced run share the measured time
            half = max(1, args.seconds // 2)
            plan = workloads.make_plan(args.workload, args.seed, bundle_dir, half)
            reference = reference_for(work, plan)
            runs = [run_phase(work, plan, half, traced=False), run_phase(work, plan, half, traced=True)]
            metrics, units = per_layer(plan, *runs), PER_LAYER
        else:
            plan = workloads.make_plan(args.workload, args.seed, bundle_dir, args.seconds)
            reference = reference_for(work, plan)
            # set-up is timed on both sides of the run, so a slow stretch of the host weighs less
            setup = measure_setup(work, plan, SETUP_SPAWNS // 2 + 1)
            runs = [run_phase(work, plan, args.seconds, traced=False)]
            setup += measure_setup(work, plan, SETUP_SPAWNS - SETUP_SPAWNS // 2)
            metrics, units = end_to_end(plan, runs[0], setup[1:]), END_TO_END
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for run in runs for e in gate_errors(run.records, reference)]
    records = [r for run in runs for r in run.records]
    failed = sum(map(exchange_failed, records))
    reasons = count_reasons(records)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"transport=loopback")
    print("perfbench: outcomes " + " ".join(f"{k}={v}" for k, v in reasons.items() if v))
    for error in errors[:20]:
        print(f"perfbench: GATE FAILED: {error}")
    for name, value in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
