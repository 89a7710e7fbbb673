"""Command-line front end: configuration, seeding, and report serialization.

Subcommands map one-to-one onto the library reports:

    truth-table   all 8 voter/alarm rows
    analytic      closed-form sweep over a rate grid
    simulate      Monte-Carlo sweep (plus analytic reference columns)
    scenarios     the NNF / NFF / FFF faulty-module studies
    table3        operations-per-error reference table
    proposition   strict-decrease audit of nested voting levels
    audit         claimed vs exact order-2 polynomial expansion

Every subcommand honors ``--format csv|json`` and ``--out`` (default:
stdout). Output is deterministic byte for byte given the same flags: CSV
starts with ``# htmr-lab v<version> seed=<seed> semantics=voter-passthrough``
followed by a config echo, probabilities print with 12 significant digits,
infinity prints as ``inf``, and absent values are empty cells (CSV) or
null (JSON); sweep headers echo the orders as they ran (``orders=1,2``).

argparse parses every flag once, so a malformed flag, or ``--order`` given
with ``--orders``, is a usage error; the library rejects values that break
a model rule (a rate outside [0, 1], a trial count outside 1..2**63 - 1,
a negative seed).
Exit codes: 0 success, 2 usage/validation error (including an ``--out``
path that cannot be written, and a simulation whose smallest block is over
the cap or needs more memory than can be allocated), 1 internal error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import sys
from dataclasses import astuple, dataclass, fields

from . import __version__
from .faults import SCENARIO_PATTERNS
from .harness import (
    ComparisonRow,
    SweepConfig,
    scenario_suite,
    sweep_analytic,
    sweep_monte_carlo,
    table3_report,
)
from .reliability import expansion_audit, proposition_check
from .voting import enumerate_truth_table

__all__ = ["main", "run", "OutputDocument", "render_csv", "render_json"]

VOTER_SEMANTICS = "voter-passthrough"

SWEEP_COLUMNS = tuple(field.name for field in fields(ComparisonRow))


@dataclass(frozen=True)
class OutputDocument:
    """One serializable report: metadata echo, column names, data rows.

    ``meta`` must start with the seed and the voter-failure-semantics tag;
    the remaining entries echo the effective configuration so any output
    file is reproducible on its own.
    """

    meta: dict
    columns: tuple[str, ...]
    rows: list[tuple]


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def render_csv(doc: OutputDocument) -> str:
    echo = " ".join(f"{k}={_fmt_cell(v)}" for k, v in doc.meta.items())
    lines = [f"# htmr-lab v{__version__} {echo}"]
    lines.append(",".join(doc.columns))
    for row in doc.rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(doc: OutputDocument) -> str:
    payload = {
        "meta": {"tool": "htmr-lab", "version": __version__}
        | {k: _json_value(v) for k, v in doc.meta.items()},
        "columns": list(doc.columns),
        "rows": [[_json_value(v) for v in row] for row in doc.rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(doc: OutputDocument, args) -> None:
    text = render_json(doc) if args.format == "json" else render_csv(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args, command: str, **extra) -> dict:
    meta = {"seed": getattr(args, "seed", 0), "semantics": VOTER_SEMANTICS,
            "command": command}
    meta.update(extra)
    return meta


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")


def _parse_trials(text: str) -> int:
    """Trial count: an integer, also written in float notation such as 1e6."""
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        value = None
    if value is None or not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(
            f"expects a whole number of trials such as 1000 or 1e6, got {text!r}"
        )
    return int(value)


def _parse_pfmb(text: str):
    if text == "pf":
        return "pf"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects 'pf' or a probability, got {text!r}")


def _grid_from_args(args) -> tuple[float, float, int, str]:
    has_point = args.pf is not None
    grid = (args.pf_min, args.pf_max, args.pf_steps, args.pf_scale)
    has_grid = any(value is not None for value in grid)
    if has_point and has_grid:
        raise ValueError("give either --pf or a --pf-min/--pf-max grid, not both")
    if has_point:
        return (args.pf, args.pf, 1, "lin")
    if has_grid:
        if args.pf_min is None or args.pf_max is None:
            raise ValueError("a grid needs both --pf-min and --pf-max")
        steps = 21 if args.pf_steps is None else args.pf_steps
        return (args.pf_min, args.pf_max, steps, args.pf_scale or "lin")
    raise ValueError("give --pf or a --pf-min/--pf-max grid")


def _sweep_config(args, orders: tuple[int, ...], trials: int, scenario=None) -> SweepConfig:
    pf_min, pf_max, steps, scale = _grid_from_args(args)
    return SweepConfig(
        pf_min=pf_min,
        pf_max=pf_max,
        pf_steps=steps,
        pf_scale=scale,
        orders=orders,
        pfmb=getattr(args, "pfmb", 0.0),
        trials=trials,
        scenario=scenario,
        seed=getattr(args, "seed", 0),
        workers=getattr(args, "workers", 1),
    )


def _sweep_echo(cfg: SweepConfig) -> dict:
    """Grid and orders of a sweep, as they ran."""
    if cfg.pf_steps == 1:
        grid = {"pf": cfg.pf_min}
    else:
        grid = {
            "pf_min": cfg.pf_min, "pf_max": cfg.pf_max,
            "pf_steps": cfg.pf_steps, "pf_scale": cfg.pf_scale,
        }
    return grid | {"orders": ",".join(map(str, cfg.orders))}


def _sweep_rows(rows: list[ComparisonRow]) -> list[tuple]:
    return [astuple(row) for row in rows]


def cmd_truth_table(args) -> OutputDocument:
    rows = [
        (t.y1, t.y2, t.y3, outcome.value, outcome.alarm)
        for t, outcome in enumerate_truth_table()
    ]
    return OutputDocument(
        meta=_meta(args, "truth-table"),
        columns=("y1", "y2", "y3", "value", "alarm"),
        rows=rows,
    )


def cmd_analytic(args) -> OutputDocument:
    cfg = _sweep_config(args, args.orders, trials=0)
    rows = sweep_analytic(cfg)
    meta = _meta(args, "analytic", **_sweep_echo(cfg), pfmb=cfg.pfmb)
    return OutputDocument(meta=meta, columns=SWEEP_COLUMNS, rows=_sweep_rows(rows))


def cmd_simulate(args) -> OutputDocument:
    orders = args.orders if args.order is None else (args.order,)
    cfg = _sweep_config(args, orders, trials=args.trials, scenario=args.scenario)
    rows = sweep_monte_carlo(cfg)
    # workers deliberately left out of the echo: results are contractually
    # identical for any worker count, so documents stay byte-identical too
    meta = _meta(
        args,
        "simulate",
        **_sweep_echo(cfg),
        pfmb=cfg.pfmb,
        trials=cfg.trials,
        streams="derive(point,order,block)@5",
    )
    if args.scenario:
        meta["scenario"] = args.scenario
    return OutputDocument(meta=meta, columns=SWEEP_COLUMNS, rows=_sweep_rows(rows))


def cmd_scenarios(args) -> OutputDocument:
    cfg = _sweep_config(args, args.orders, trials=args.trials)
    suite = scenario_suite(cfg)
    rows = []
    for pattern, sub_rows in suite.items():
        for cells in _sweep_rows(sub_rows):
            rows.append(cells + (pattern,))
    meta = _meta(
        args,
        "scenarios",
        **_sweep_echo(cfg),
        trials=cfg.trials,
        streams="derive(scenario,point,order,block)@5",
    )
    return OutputDocument(meta=meta, columns=SWEEP_COLUMNS + ("scenario",), rows=rows)


def cmd_table3(args) -> OutputDocument:
    rows = [(row.pf,) + row.ops_presented for row in table3_report()]
    return OutputDocument(
        meta=_meta(args, "table3"),
        columns=("pf", "module", "order1", "order2"),
        rows=rows,
    )


def cmd_proposition(args) -> OutputDocument:
    report = proposition_check(args.pf, args.j_max)
    decreased = {j: ok for j, ok in report.comparisons}
    rows = []
    for j, pe in report.entries:
        flag = None if j == 1 else ("yes" if decreased[j] else "no")
        rows.append((j, pe, flag))
    meta = _meta(
        args, "proposition", pf=report.pf, j_max=args.j_max, verdict=report.verdict
    )
    return OutputDocument(
        meta=meta, columns=("j", "pe", "decreased_from_previous"), rows=rows
    )


AUDIT_DEFAULT_SAMPLES = tuple(k / 10.0 for k in range(1, 10))


def cmd_audit(args) -> OutputDocument:
    samples = (args.pf,) if args.pf is not None else AUDIT_DEFAULT_SAMPLES
    audit = expansion_audit(samples)
    rows = [
        (s.p, s.composed, s.claimed, s.abs_difference) for s in audit.samples
    ]
    meta = _meta(args, "audit", max_abs_difference=audit.max_abs_difference)
    doc = OutputDocument(
        meta=meta,
        columns=("p", "composed", "claimed", "abs_difference"),
        rows=rows,
    )
    return doc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pf", type=float, default=None)
    parser.add_argument("--pf-min", type=float, default=None)
    parser.add_argument("--pf-max", type=float, default=None)
    parser.add_argument("--pf-steps", type=int, default=None)
    parser.add_argument("--pf-scale", choices=("lin", "log"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htmr-lab",
        description="Hierarchical TMR voting, error-probability models, "
        "and seeded Monte-Carlo fault injection.",
    )
    parser.add_argument("--version", action="version", version=f"htmr-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("truth-table", help="all 8 voter/alarm rows")
    _add_common(p)
    p.set_defaults(handler=cmd_truth_table)

    p = sub.add_parser("analytic", help="closed-form sweep over a rate grid")
    _add_grid(p)
    p.add_argument("--orders", type=_parse_orders, default=(0, 1, 2))
    p.add_argument("--pfmb", type=_parse_pfmb, default=0.0)
    _add_common(p)
    p.set_defaults(handler=cmd_analytic)

    p = sub.add_parser("simulate", help="seeded Monte-Carlo sweep")
    _add_grid(p)
    orders = p.add_mutually_exclusive_group()
    orders.add_argument("--order", type=int, default=None)
    orders.add_argument("--orders", type=_parse_orders, default=(1,))
    p.add_argument("--pfmb", type=_parse_pfmb, default=0.0)
    p.add_argument("--trials", type=_parse_trials, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", choices=SCENARIO_PATTERNS, default=None)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("scenarios", help="NNF/NFF/FFF faulty-module studies")
    _add_grid(p)
    p.add_argument("--orders", type=_parse_orders, default=(1, 2))
    p.add_argument("--trials", type=_parse_trials, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_scenarios)

    p = sub.add_parser("table3", help="operations-per-error reference table")
    _add_common(p)
    p.set_defaults(handler=cmd_table3)

    p = sub.add_parser("proposition", help="strict-decrease audit across levels")
    p.add_argument("--pf", type=float, required=True)
    p.add_argument("--j-max", type=int, default=5)
    _add_common(p)
    p.set_defaults(handler=cmd_proposition)

    p = sub.add_parser("audit", help="claimed vs exact order-2 expansion")
    p.add_argument("--pf", type=float, default=None)
    _add_common(p)
    p.set_defaults(handler=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
        _emit(doc, args)
    except (ValueError, MemoryError) as exc:
        print(f"htmr-lab: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except OSError as exc:
        print(f"htmr-lab: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"htmr-lab: internal error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
