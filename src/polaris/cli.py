"""Command-line front end.

Exit codes: 0 on success/pass, 1 when a checked property fails, 2 on usage
or I/O errors.  ``POLARIS_LOG=quiet`` drops the ``INFO`` lines on stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from . import exchange
from .automata import is_bisimilar, natural_project, parallel_compose
from .errors import HorizonViolation, PolarisError, SupervisorBlocked, ValidationError
from .models import build_models
from .polar import PolarPartition
from .scenario import parse_scenario
from .sim import run_scenario
from .supervision import (
    check_controllability,
    check_decomposability,
    decompose,
    is_nonblocking,
    verify_decentralized,
)

PASS, FAIL, USAGE = 0, 1, 2


def _info(message: str) -> None:
    if os.environ.get("POLARIS_LOG", "info").lower() != "quiet":
        print(f"INFO polaris: {message}", file=sys.stderr)


def _event_list(value: str):
    """Comma-separated event ids, or @FILE to use that automaton's alphabet."""
    if value.startswith("@"):
        return sorted(exchange.read(value[1:]).event_ids)
    return [tok for tok in value.split(",") if tok]


def _partition(value: str) -> PolarPartition:
    parts = value.split(",")
    if len(parts) != 3:
        raise PolarisError("--partition expects 'r_max,n_r,n_theta'")
    try:
        (r_max, n_r, n_theta) = (float(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        raise PolarisError(f"--partition: bad number in {value!r}") from None
    return PolarPartition(r_max, n_r, n_theta)


def cmd_compose(args) -> int:
    result = parallel_compose(exchange.read(args.a), exchange.read(args.b))
    exchange.write(result, args.output)
    _info(f"wrote {args.output} ({len(result.states)} states)")
    return PASS


def cmd_project(args) -> int:
    a = exchange.read(args.a)
    result = natural_project(a, _event_list(args.keep))
    exchange.write(result, args.output)
    _info(f"wrote {args.output} ({len(result.states)} states)")
    return PASS


def cmd_bisim(args) -> int:
    (a, b) = (exchange.read(args.a), exchange.read(args.b))
    if is_bisimilar(a, b):
        print("bisimilar")
        return PASS
    print(f"not bisimilar; distinguishing state pair: {(a.initial, b.initial)}")
    return FAIL


def cmd_check_controllable(args) -> int:
    plant = exchange.read(args.plant)
    spec = exchange.read(args.spec)
    report = check_controllability(spec, plant)
    if report:
        print("controllable")
        return PASS
    print(
        "not controllable: after "
        f"{'.'.join(report.witness_string) or '<empty>'} the plant allows "
        f"uncontrollable {report.witness_event} but the spec does not"
    )
    return FAIL


def cmd_check_decomposable(args) -> int:
    a = exchange.read(args.automaton)
    report = check_decomposability(a, _event_list(args.events1), _event_list(args.events2))
    print(report.summary())
    return PASS if report else FAIL


def cmd_build_models(args) -> int:
    p = _partition(args.partition)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    models = build_models(p)
    files = {
        "a1.aut": models.plant1,
        "a2.aut": models.plant2,
        "af1.aut": models.formation1,
        "af2.aut": models.formation2,
        "ac.aut": models.collision,
        "ac1.aut": models.local(1),
        "ac2.aut": models.local(2),
    }
    for name, auto in files.items():
        exchange.write(auto, outdir / name)

    # the joint plant and the spec (the collision supervisor on it) are
    # only checked, so they are operands, walked and never composed
    joint_plant = (models.plant1, models.plant2)
    spec = (models.collision, joint_plant)
    verdicts = {}  # in report order
    for k in (1, 2):
        verdicts[f"controllable_formation_{k}"] = bool(
            check_controllability(models.formation(k), models.plant(k))
        )
    verdicts["controllable_collision"] = bool(
        check_controllability(models.collision, joint_plant)
    )
    report = models.decomposition  # dc3 is not printed
    verdicts["decomposable_collision"] = bool(report)
    verdicts.update(dc1=report.dc1_witness is None, dc2=report.dc2_witness is None,
                    dc4=report.dc4_witness is None)
    verdicts["decentralized_equivalent"] = bool(
        verify_decentralized(models.plant1, models.plant2, report.local1, report.local2, spec)
    )
    # the spec first: its alphabet holds the formations', so no row of the
    # walk is wider than its own
    verdicts["mission_nonblocking"] = is_nonblocking(spec, models.formation1, models.formation2)
    text = (
        f"partition = {p.r_max:g},{p.n_r},{p.n_theta}\n"
        + "".join(f"{name} = {ok}\n" for name, ok in verdicts.items())
        + f"elapsed_s = {time.monotonic() - started:.2f}\n"
    )
    (outdir / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    # the dc diagnostics explain a verdict; they do not decide the exit code
    all_ok = all(ok for name, ok in verdicts.items() if name not in ("dc1", "dc2", "dc4"))
    return PASS if all_ok else FAIL


def cmd_simulate(args) -> int:
    cfg = parse_scenario(args.scenario)
    try:
        result = run_scenario(cfg)
    except (HorizonViolation, ValidationError) as exc:
        if getattr(exc, "world", None) is not None:
            raise
        # a start or formation switch that the file's positions make
        # impossible: no world was reached, so the file is named instead
        raise ValidationError(str(exc), args.scenario) from exc
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "trajectory.csv").write_text(result.csv_text(), encoding="utf-8")
    (outdir / "events.log").write_text(result.log_text(), encoding="utf-8")
    verdicts = result.verdicts_text()
    (outdir / "verdicts.txt").write_text(verdicts, encoding="utf-8")
    (outdir / "controllers.txt").write_text(result.controllers, encoding="utf-8")
    print(verdicts, end="")
    return PASS


def cmd_verify_theorem1(args) -> int:
    plant1 = exchange.read(args.plant1)
    plant2 = exchange.read(args.plant2)
    controller = exchange.read(args.controller)
    spec = exchange.read(args.spec)
    # the local supervisors: the controller projected onto its events
    # shared with each plant
    (local1, local2) = decompose(
        controller, controller.event_ids & plant1.event_ids, controller.event_ids & plant2.event_ids
    )
    decentral = verify_decentralized(plant1, plant2, local1, local2, spec)
    # the global controller on the joint plant, the closed loop that the
    # local ones must reproduce
    central = is_bisimilar((controller, (plant1, plant2)), spec)
    print(f"centralized_matches_spec = {bool(central)}")
    print(f"decentralized_matches_spec = {bool(decentral)}")
    return PASS if decentral else FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="polaris",
        description="supervisory-control toolkit and formation-flight simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("compose", help="parallel composition of two automata")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_compose)

    q = sub.add_parser("project", help="natural projection onto an event set")
    q.add_argument("a")
    q.add_argument("--keep", required=True, help="comma-separated events or @FILE")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_project)

    q = sub.add_parser("bisim", help="bisimilarity check (exit 0 iff bisimilar)")
    q.add_argument("a")
    q.add_argument("b")
    q.set_defaults(func=cmd_bisim)

    q = sub.add_parser("check-controllable", help="controllability of a spec")
    q.add_argument("--plant", required=True)
    q.add_argument("--spec", required=True)
    q.set_defaults(func=cmd_check_controllable)

    q = sub.add_parser("check-decomposable", help="two-agent decomposability")
    q.add_argument("automaton")
    q.add_argument("--events1", required=True, help="comma-separated events or @FILE")
    q.add_argument("--events2", required=True, help="comma-separated events or @FILE")
    q.set_defaults(func=cmd_check_decomposable)

    q = sub.add_parser("build-models", help="emit the formation model set")
    q.add_argument("--partition", required=True, help="r_max,n_r,n_theta")
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_build_models)

    q = sub.add_parser("simulate", help="run a mission scenario")
    q.add_argument("--scenario", required=True)
    q.add_argument("-o", "--output", required=True)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("verify-theorem1", help="decentralized cooperation check")
    q.add_argument("--plant1", required=True)
    q.add_argument("--plant2", required=True)
    q.add_argument("--controller", required=True)
    q.add_argument("--spec", required=True)
    q.set_defaults(func=cmd_verify_theorem1)

    return parser


def _failure_context(exc) -> str:
    """Where a failed simulation stopped: the last world reached, its
    followers' relative positions and the event records that led there."""
    world = exc.world
    lines = [f"  at t={world.t:.6f} step_index={world.step_index}"]
    for (k, (x, y)) in enumerate(world.relative, start=1):
        lines.append(f"  follower {k} relative position ({x:.6f}, {y:.6f})")
    lines.append(f"  last {len(exc.recent)} event records:")
    lines.extend(f"    {rec.line()}" for rec in exc.recent)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolarisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (HorizonViolation, SupervisorBlocked)) and exc.world is not None:
            print(_failure_context(exc), end="", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
