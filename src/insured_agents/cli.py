"""Command-line front door.

Subcommands:
  check     evaluate the three equilibrium conditions on a parameter set
  solve     solve the dispute game by backward induction
  simulate  run a scenario file and write a metrics report
  sweep     run a parameter grid and emit a CSV table
  stack     compose a hierarchical underwriting stack and quote a premium

Exit codes: 0 success / conditions hold, 1 mechanism-level negative
result, 2 usage or input error. Money flags take decimal currency values
(at most six decimal places). All outputs are canonical: sorted keys and
fixed column order, so runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys

from .game import build_game, brute_force_spe, solve_spe
from .market import Certificate, compose_stack, stack_premium
from .mechanism import FIELDS, REQUIRED, SIGNED, MechanismParams, check_conditions
from .money import MoneyError, format_units, units
from .sim import (
    ScenarioError, load_scenario, run_scenario_with_records, sweep, sweep_configs,
)


def _money_flag(text: str) -> int:
    try:
        value = units(text)
    except MoneyError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _unsigned_money_flag(text: str) -> int:
    value = _money_flag(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _add_param_flags(parser: argparse.ArgumentParser, *, pi_required: bool) -> None:
    """One flag per mechanism parameter: `--` and its name with `_` as `-`,
    but `--pi-honest` in lower case. A flag left out leaves its parameter at
    the MechanismParams default."""
    for name in FIELDS:
        flag = "--" + name.replace("_", "-")
        pi = flag.lower() == "--pi-honest"  # the one flag spelled in lower case
        signed = name in SIGNED
        parser.add_argument(
            flag.lower() if pi else flag, dest=name, default=argparse.SUPPRESS,
            type=_money_flag if signed else _unsigned_money_flag,
            required=name in REQUIRED or (pi and pi_required),
            help=f"mechanism parameter {name} ({'signed ' if signed else ''}decimal units)",
        )


def _params_from_args(args: argparse.Namespace) -> MechanismParams:
    return MechanismParams(**{k: v for k, v in vars(args).items() if k in FIELDS})


def _cmd_check(args: argparse.Namespace) -> int:
    report = check_conditions(_params_from_args(args))
    print(f"access_to_justice: {report.access_to_justice}")
    print(f"solvency: {report.solvency}")
    print(f"deterrence: {report.deterrence}")
    print(f"all_hold: {report.all_hold}")
    return 0 if report.all_hold else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    tree = build_game(params)
    profile, payoffs = solve_spe(tree)
    print(f"agent: {profile.agent.value}")
    print(f"claims_when_harmed: {profile.claims_when_harmed}")
    print(f"claims_when_unharmed: {profile.claims_when_unharmed}")
    print(f"respond_valid: {profile.respond_valid.value}")
    print(f"respond_invalid: {profile.respond_invalid.value}")
    print(f"escalate_valid: {profile.escalate_valid.value}")
    print(f"escalate_invalid: {profile.escalate_invalid.value}")
    print(f"path: {profile.outcome_path().describe()}")
    print(
        "payoffs: "
        f"agent={format_units(payoffs.pi_A)} "
        f"insurer={format_units(payoffs.pi_I)} "
        f"user={format_units(payoffs.pi_U)}"
    )
    print(f"verifier_invoked: {payoffs.verifier_invoked}")
    if args.oracle:
        member = profile in brute_force_spe(tree)
        print(f"solver in oracle set: {'yes' if member else 'no'}")
        if not member:
            return 1
    return 0


@contextlib.contextmanager
def _open_outputs(*paths: str):
    """`paths` opened for writing, each emptied; or the first OSError, with
    none of them created or emptied."""
    fds, created = [], []
    try:
        for path in paths:
            try:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:  # emptied only once every path is open
                fds.append(os.open(path, os.O_WRONLY))
    except OSError:
        for fd in fds:
            os.close(fd)
        for path in created:
            os.unlink(path)
        raise
    with contextlib.ExitStack() as files:
        for fd in fds:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # a terminal or a pipe has nothing to empty
                os.ftruncate(fd, 0)
        yield [files.enter_context(open(fd, "w", encoding="utf-8", newline="\n")) for fd in fds]


def _cmd_simulate(args: argparse.Namespace) -> int:
    log_path = args.episodes_log
    if log_path and os.path.realpath(log_path) == os.path.realpath(args.out):
        print(f"error: --out and --episodes-log name one file: {args.out}", file=sys.stderr)
        return 2
    try:
        config = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Outputs open before the run: an unwritable path fails before any episode.
    with _open_outputs(args.out, *([log_path] if log_path else [])) as (out, *logs):
        report, records = run_scenario_with_records(config)
        out.write(report.to_json())
        for log in logs:
            for record in records:
                log.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


def _parse_grid(spec: str) -> list[tuple[str, list[int]]]:
    """Grid spec: semicolon-separated `name=v1,v2,...` with decimal values.
    Names are checked by `sweep_configs`."""
    grid: list[tuple[str, list[int]]] = []
    for chunk in filter(None, (part.strip() for part in spec.split(";"))):
        if "=" not in chunk:
            raise ValueError(f"grid entry {chunk!r} is not name=v1,v2,...")
        name, _, rest = chunk.partition("=")
        name = name.strip()
        try:
            values = [units(v.strip()) for v in rest.split(",") if v.strip()]
        except MoneyError as exc:
            raise ValueError(f"grid entry {name}: {exc}") from None
        if not values:
            raise ValueError(f"grid entry {name} has no values")
        grid.append((name, values))
    if not grid:
        raise ValueError("empty grid spec")
    return grid


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        grid = _parse_grid(args.grid)
        config = load_scenario(args.scenario)
        sweep_configs(config, grid)  # a malformed grid fails before the CSV opens
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with _open_outputs(args.out) as (fh,):
        rows = sweep(config, grid, jobs=args.jobs)
        fh.write(_csv(grid, rows))
    print(f"wrote {args.out}")
    return 0


def _csv(grid: list[tuple[str, list[int]]], rows: list[dict]) -> str:
    names = [name for name, _ in grid]
    header = names + ["predicted", "misbehavior_rate", "dispute_rate",
                      "verifier_invocations"]
    lines = [",".join(header)]
    for row in rows:
        cells = [format_units(row[name]) for name in names]
        cells.append("true" if row["predicted"] else "false")
        cells.append(repr(row["misbehavior_rate"]))
        cells.append(repr(row["dispute_rate"]))
        cells.append(str(row["verifier_invocations"]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cert_flag(text: str) -> Certificate:
    if ":" not in text:
        raise argparse.ArgumentTypeError(f"certificate {text!r} is not domain:discount")
    domain, _, discount = text.partition(":")
    try:
        value = float(discount)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad discount in {text!r}") from None
    try:
        return Certificate(issuer=f"{domain}-insurer", domain=domain, risk_discount=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_stack(args: argparse.Namespace) -> int:
    try:
        stack = compose_stack(args.base_risk, args.cert or [])
        premium = stack_premium(stack, args.coverage, args.loading)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"residual_risk: {stack.residual_risk!r}")
    for cert in stack.layer1:
        print(f"certificate: {cert.domain} discount={cert.risk_discount!r}")
    for warning in stack.warnings:
        print(f"warning: {warning}")
    print(f"premium: {format_units(premium)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insured-agents",
        description="Dispute-game solver and market simulator for insured agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the equilibrium conditions")
    _add_param_flags(p_check, pi_required=False)
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="solve the dispute game")
    _add_param_flags(p_solve, pi_required=True)
    p_solve.add_argument(
        "--oracle", action="store_true",
        help="cross-check the solver against the brute-force SPE oracle",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario", help="path to a JSON scenario file")
    p_sim.add_argument("--out", required=True, help="metrics report output path")
    p_sim.add_argument(
        "--episodes-log", default=None,
        help="optional newline-delimited per-episode record output",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("--grid", required=True,
                         help="grid spec: name=v1,v2;name2=v3,... (decimal units)")
    p_sweep.add_argument("--scenario", required=True,
                         help="base scenario file for every cell")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="the most cells that may run at once (default 1); "
                              "cells run one at a time in grid order, so the CSV "
                              "never depends on it")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_stack = sub.add_parser("stack", help="compose an underwriting stack")
    p_stack.add_argument("--base-risk", type=float, required=True)
    p_stack.add_argument("--cert", type=_cert_flag, action="append",
                         help="layer-1 certificate as domain:discount (repeatable)")
    p_stack.add_argument("--coverage", type=_unsigned_money_flag, required=True)
    p_stack.add_argument("--loading", type=float, default=0.0)
    p_stack.set_defaults(func=_cmd_stack)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MoneyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
