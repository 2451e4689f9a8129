"""Command-line interface for the admission gate.

Subcommands cover the whole lifecycle: generate demo data, train models,
inspect a single request's score, serve the gate, act as a solving
client, replay a simulation scenario, and sweep puzzle difficulty.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(missing or unusable inputs, degraded training), 3 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

from . import pow_core, simulate, synthlog
from .cluster_models import DEFAULT_AGING_WINDOW_DAYS, DEFAULT_GAP_MERGE_MIN
from .errors import (
    ConfigError,
    CorruptLogError,
    DegenerateModelError,
    EmptyTrainingSetError,
    ProtocolError,
    SchemaError,
)
from .persistence import load_bundle, save_bundle
from .policy_engine import load_policy
from .protocol import DEFAULT_QUEUE_CAPACITY, GateServer, Request, client_session
from .training import train_bundle

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

POLICY_ENV = "CAPOW_POLICY"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here is 1."""

    def error(self, message: str) -> "NoReturn":  # type: ignore[name-defined]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="capow", description="context-aware proof-of-work admission gate")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic activity log and IP table")
    p.add_argument("--out-log", required=True, help="activity log CSV to write")
    p.add_argument("--out-ip", help="IP attribute CSV to write")
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--legit", type=int, default=4, help="number of legitimate users")
    p.add_argument("--attackers", type=int, default=2, help="number of attacking users")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train context models from activity logs")
    p.add_argument("--log", action="append", required=True, metavar="CSV",
                   help="activity log; repeat for more days (order sets the day index)")
    p.add_argument("--out", required=True, metavar="DIR", help="model bundle directory")
    p.add_argument("--ip-attributes", metavar="CSV", help="IP attribute table")
    p.add_argument("--aging-window", type=int, default=DEFAULT_AGING_WINDOW_DAYS, metavar="DAYS",
                   help="temporal model keeps only this many newest log days")
    p.add_argument("--gap-merge", type=float, default=DEFAULT_GAP_MERGE_MIN, metavar="MIN",
                   help="arrivals closer than this merge into one interval")
    p.add_argument("--dabr-delta-max", type=float, default=None, metavar="DIST",
                   help="IP-distance saturation; default is the unit-cube diagonal")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score one request against trained models")
    p.add_argument("--models", required=True, metavar="DIR")
    p.add_argument("--policy", metavar="FILE", help=f"policy file (or ${POLICY_ENV})")
    p.add_argument("--row", metavar="CSV",
                   help="whole request as one CSV row: user,arrival,f1,f2,...")
    p.add_argument("--user", metavar="ID")
    p.add_argument("--arrival", type=float, metavar="MIN",
                   help="arrival time in minutes since midnight")
    p.add_argument("--features", metavar="F1,F2,...",
                   help="raw flow feature values, comma separated")
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("serve", help="run the admission gate server")
    p.add_argument("--models", required=True, metavar="DIR")
    p.add_argument("--policy", metavar="FILE", help=f"policy file (or ${POLICY_ENV})")
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="bind address; port 0 picks a free port")
    p.add_argument("--queue-capacity", type=int, default=DEFAULT_QUEUE_CAPACITY)
    p.add_argument("--expiry-ms", type=int, default=pow_core.DEFAULT_EXPIRY_MS)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("solve", help="request admission from a gate and solve its puzzle")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--user", required=True, metavar="ID")
    p.add_argument("--arrival", required=True, type=float, metavar="MIN")
    p.add_argument("--features", required=True, metavar="F1,F2,...")
    p.add_argument("--timeout", type=float, default=60.0, metavar="S",
                   help="give up solving after this many seconds")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="replay a scenario against an in-process gate")
    p.add_argument("--scenario", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--plots", action="store_true", help="also render PNG charts")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="measure solve cost across difficulty levels")
    p.add_argument("--max-difficulty", type=int, default=12)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="CSV", help="write the sweep table here")
    p.add_argument("--plots", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"capow: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, CorruptLogError, EmptyTrainingSetError, DegenerateModelError) as exc:
        print(f"capow: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"capow: not found: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        return EXIT_OK
    except (OSError, ProtocolError) as exc:
        print(f"capow: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _policy_from(args) -> "PolicyConfig":  # type: ignore[name-defined]
    path = args.policy or os.environ.get(POLICY_ENV)
    if not path:
        raise ConfigError(f"no policy given: pass --policy or set ${POLICY_ENV}")
    return load_policy(path)


def _parse_features(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"features must be comma-separated numbers, got {raw!r}") from None


def _check_arrival(arrival: float) -> float:
    if not 0.0 <= arrival < 24.0 * 60.0:
        raise ConfigError(f"arrival must be in [0, 1440) minutes, got {arrival}")
    return arrival


def _parse_endpoint(raw: str) -> tuple[str, int]:
    host, sep, port = raw.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"endpoint must look like host:port, got {raw!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"port must be an integer, got {port!r}") from None


def _request_from_args(args) -> Request:
    flags = (args.user, args.arrival, args.features)
    if args.row is None:
        if any(value is None for value in flags):
            raise ConfigError("pass --row or all of --user, --arrival and --features")
        return Request(args.user, _check_arrival(args.arrival), _parse_features(args.features))
    if any(value is not None for value in flags):
        raise ConfigError("--row replaces --user/--arrival/--features")
    parts = [tok.strip() for tok in args.row.split(",")]
    if len(parts) < 3 or not parts[0]:
        raise ConfigError("row must be user,arrival,f1[,f2,...]")
    try:
        arrival = float(parts[1])
    except ValueError:
        raise ConfigError(f"row arrival must be a number, got {parts[1]!r}") from None
    return Request(parts[0], _check_arrival(arrival), _parse_features(",".join(parts[2:])))


def cmd_synth(args) -> int:
    users = synthlog.default_population(args.legit, args.attackers)
    rows = synthlog.write_activity_log(args.out_log, users, days=args.days, seed=args.seed)
    print(f"wrote {rows} rows to {args.out_log}")
    if args.out_ip:
        n = synthlog.write_ip_attributes(args.out_ip, users, seed=args.seed)
        print(f"wrote {n} address rows to {args.out_ip}")
    return EXIT_OK


def cmd_train(args) -> int:
    bundle, report = train_bundle(
        args.log,
        ip_attributes_path=args.ip_attributes,
        aging_window_days=args.aging_window,
        gap_merge_min=args.gap_merge,
        dabr_delta_max=args.dabr_delta_max,
    )
    out = save_bundle(bundle, args.out)
    print(f"trained on {report.records_total} rows ({report.rows_skipped} skipped)")
    print(f"contexts enabled: {', '.join(sorted(report.contexts_enabled)) or 'none'}")
    if report.tam_users:
        print(f"temporal model covers {report.tam_users} users")
    for warning in report.warnings:
        print(f"warning: {warning}")
    print(f"bundle written to {out}")
    return EXIT_DATA if report.partial else EXIT_OK


def cmd_score(args) -> int:
    gate = GateServer(load_bundle(args.models), _policy_from(args))
    request = _request_from_args(args)
    score, difficulty = gate.price(request)
    if args.csv:
        print("user_id,alpha,beta,gamma,phi,deciding_model,difficulty")
        print(
            f"{request.user_id},{score.alpha:.6f},{score.beta:.6f},{score.gamma:.6f},"
            f"{score.phi:.6f},{score.deciding_model.value},{difficulty}"
        )
    else:
        print(f"user:           {request.user_id}")
        print(f"ip score:       {score.alpha:.4f}")
        print(f"temporal score: {score.beta:.4f}")
        print(f"flow score:     {score.gamma:.4f}")
        print(f"fused score:    {score.phi:.4f} (driven by {score.deciding_model.value})")
        print(f"difficulty:     {difficulty}")
    return EXIT_OK


def cmd_serve(args) -> int:
    bundle = load_bundle(args.models)
    policy = _policy_from(args)
    bind_host, bind_port = _parse_endpoint(args.listen)
    server = GateServer(
        bundle,
        policy,
        host=bind_host,
        port=bind_port,
        queue_capacity=args.queue_capacity,
        expiry_ms=args.expiry_ms,
    )
    host, port = server.start()
    print(f"capow gate listening on {host}:{port}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def cmd_solve(args) -> int:
    request = Request(
        user_id=args.user,
        arrival_min=_check_arrival(args.arrival),
        flow_features=_parse_features(args.features),
    )
    outcome = client_session(
        request, (args.host, args.port), solve_deadline_s=args.timeout
    )
    if outcome.reason == "transport":
        print("no usable reply from the gate", file=sys.stderr)
        return EXIT_RUNTIME
    verdict = "admitted" if outcome.admitted else f"rejected ({outcome.reason})"
    print(f"{verdict}: difficulty={outcome.difficulty} attempts={outcome.attempts} "
          f"latency={outcome.latency_ms:.1f}ms")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = simulate.load_scenario(args.scenario)
    result = simulate.run_simulation(scenario, args.out, plots=args.plots)
    print(f"{'user':<16} {'role':<11} {'sent':>5} {'adm':>4} {'rej':>4} {'abn':>4} "
          f"{'mean d':>7} {'mean phi':>9} {'p50 ms':>8}")
    for row in result.report:
        mean_d = "-" if row.mean_difficulty is None else f"{row.mean_difficulty:.2f}"
        mean_phi = "-" if row.mean_phi is None else f"{row.mean_phi:.3f}"
        print(f"{row.user_id:<16} {row.role:<11} {row.requests_sent:>5} {row.admitted:>4} "
              f"{row.rejected:>4} {row.abandoned:>4} {mean_d:>7} {mean_phi:>9} "
              f"{row.median_latency_ms:>8.1f}")
    print(f"events: {result.events_path}")
    print(f"report: {result.report_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = simulate.difficulty_sweep(args.max_difficulty, args.trials, args.seed)
    print(f"{'difficulty':>10} {'median s':>12} {'mean attempts':>15}")
    for row in rows:
        print(f"{row.difficulty:>10} {row.median_solve_s:>12.6f} {row.mean_attempts:>15.1f}")
    if args.out:
        path = simulate.write_sweep_csv(rows, args.out)
        print(f"sweep table: {path}")
        if args.plots:
            png = simulate.render_sweep_plot(rows, Path(args.out).with_suffix(".png"))
            if png:
                print(f"sweep plot: {png}")
    elif args.plots:
        png = simulate.render_sweep_plot(rows, "sweep.png")
        if png:
            print(f"sweep plot: {png}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
