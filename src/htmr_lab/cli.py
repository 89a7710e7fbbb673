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
followed by a config echo whose floats read back as the same double (with
12 significant digits where those do), probabilities print with 12
significant digits, infinity prints as ``inf``, and absent values are empty
cells (CSV) or null (JSON). The echo holds the checked values that ran, not
the flags as typed: a sweep's grid, orders and seed come from its
``SweepConfig`` (``orders=1,2``; ``--scenario NNFNNFNNF`` echoes
``scenario=NNF``), so two spellings of one run give one document.

argparse parses every flag once, so a malformed flag, or ``--order`` given
with ``--orders``, is a usage error; the library rejects values that break
a model rule (a rate outside [0, 1], a trial count outside 1..2**63 - 1,
a negative seed).
Exit codes: 0 success, 2 usage/validation error (including an ``--out``
path that cannot be written, and a simulation whose smallest block is over
the cap or needs more memory than can be allocated), 1 internal error.

The fixed reports, the voter classes and ``json`` are imported by the
commands that use them, when they run, so a CSV ``simulate`` loads none.
numpy loads at the first trial drawn, or when a log grid is built, so the
commands that draw nothing never load it. It starts without OpenBLAS's
thread pool, unless ``OPENBLAS_NUM_THREADS`` is already set: no command
calls a BLAS routine.

``run()``, the process entry point, is ``os._exit(main())``, which skips
the interpreter's teardown and loses nothing: ``_emit`` flushes stdout,
``--out`` is closed by its ``with``, ``run_trials`` reaps its workers, and
argparse's ``SystemExit`` leaves through the normal exit.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple, NoReturn

# before numpy loads at the first draw: no command calls a BLAS routine
# (linalg, dot, matmul), so OpenBLAS's pool thread would only cost time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__  # noqa: E402
from .harness import (  # noqa: E402
    ComparisonRow,
    SweepConfig,
    scenario_suite,
    sweep_analytic,
    sweep_monte_carlo,
)

__all__ = ["main", "run", "OutputDocument", "render_csv", "render_json"]

VOTER_SEMANTICS = "voter-passthrough"

SWEEP_COLUMNS = ComparisonRow._fields


class OutputDocument(NamedTuple):
    """One serializable report: metadata echo, column names, data rows.

    ``meta`` must start with the seed, the voter-failure-semantics tag and
    the command, which ``_document`` writes for every command; the
    remaining entries echo the effective configuration so any output file
    is reproducible on its own.
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


def _fmt_echo(value) -> str:
    """A header value; a float prints as a cell where that reads back as
    the same double, and in full otherwise."""
    text = _fmt_cell(value)
    if isinstance(value, float) and float(text) != value:
        return repr(float(value))
    return text


def _json_value(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def render_csv(doc: OutputDocument) -> str:
    echo = " ".join(f"{k}={_fmt_echo(v)}" for k, v in doc.meta.items())
    lines = [f"# htmr-lab v{__version__} {echo}"]
    lines.append(",".join(doc.columns))
    for row in doc.rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(doc: OutputDocument) -> str:
    import json

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
        sys.stdout.flush()  # here, not at exit: run() ends by os._exit


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")


def _parse_trials(text: str) -> int:
    """Trial count: an integer, also written in float notation such as 1e6."""
    try:
        return int(text)
    except ValueError:
        # Decimal reads every spelling int takes, to the same value; it is
        # loaded only for float notation and integers over int's digit limit
        import decimal
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


def _document(command: str, columns, rows, seed=0, **echo) -> OutputDocument:
    """A command's document: the header's required prefix (seed, semantics
    tag, command), then ``echo``, the checked values the command ran with;
    an entry of None, an option left unset, is left out."""
    meta = {"seed": seed, "semantics": VOTER_SEMANTICS, "command": command}
    meta |= {key: value for key, value in echo.items() if value is not None}
    return OutputDocument(meta=meta, columns=tuple(columns), rows=list(rows))


def _sweep_config(args, orders: tuple[int, ...], **run) -> SweepConfig:
    """The sweep of a grid subcommand: one point (``--pf``) or a grid, the
    orders, and ``run``, the other values that subcommand parsed."""
    grid = (args.pf_min, args.pf_max, args.pf_steps, args.pf_scale)
    has_grid = any(value is not None for value in grid)
    if args.pf is not None:
        if has_grid:
            raise ValueError("give either --pf or a --pf-min/--pf-max grid, not both")
        return SweepConfig.single(args.pf, orders=orders, **run)
    if not has_grid:
        raise ValueError("give --pf or a --pf-min/--pf-max grid")
    if args.pf_min is None or args.pf_max is None:
        raise ValueError("a grid needs both --pf-min and --pf-max")
    return SweepConfig(
        pf_min=args.pf_min,
        pf_max=args.pf_max,
        pf_steps=21 if args.pf_steps is None else args.pf_steps,
        pf_scale=args.pf_scale or "lin",
        orders=orders,
        **run,
    )


def _sweep_document(
    cfg: SweepConfig, command: str, rows, columns=SWEEP_COLUMNS, **echo
) -> OutputDocument:
    """A sweep's document, echoing the seed, grid and orders of ``cfg``,
    the configuration that ran, before ``echo``."""
    if cfg.pf_steps == 1:
        grid = {"pf": cfg.pf_min}
    else:
        grid = {
            "pf_min": cfg.pf_min, "pf_max": cfg.pf_max,
            "pf_steps": cfg.pf_steps, "pf_scale": cfg.pf_scale,
        }
    orders = ",".join(map(str, cfg.orders))
    return _document(command, columns, rows, seed=cfg.seed, **grid, orders=orders, **echo)


def cmd_truth_table(args) -> OutputDocument:
    from .voting import enumerate_truth_table

    rows = [
        (t.y1, t.y2, t.y3, outcome.value, outcome.alarm)
        for t, outcome in enumerate_truth_table()
    ]
    return _document("truth-table", ("y1", "y2", "y3", "value", "alarm"), rows)


def cmd_analytic(args) -> OutputDocument:
    cfg = _sweep_config(args, args.orders, pfmb=args.pfmb)
    return _sweep_document(cfg, "analytic", sweep_analytic(cfg), pfmb=cfg.pfmb)


def cmd_simulate(args) -> OutputDocument:
    orders = args.orders if args.order is None else (args.order,)
    cfg = _sweep_config(
        args, orders, pfmb=args.pfmb, trials=args.trials, scenario=args.scenario,
        seed=args.seed, workers=args.workers,
    )
    # workers deliberately left out of the echo: results are contractually
    # identical for any worker count, so documents stay byte-identical too
    return _sweep_document(
        cfg, "simulate", sweep_monte_carlo(cfg), pfmb=cfg.pfmb, trials=cfg.trials,
        streams="derive(point,top,block)@6", scenario=cfg.scenario,
    )


def cmd_scenarios(args) -> OutputDocument:
    cfg = _sweep_config(
        args, args.orders, trials=args.trials, seed=args.seed, workers=args.workers
    )
    rows = [
        row + (pattern,)
        for pattern, sub_rows in scenario_suite(cfg).items()
        for row in sub_rows
    ]
    return _sweep_document(
        cfg, "scenarios", rows, columns=SWEEP_COLUMNS + ("scenario",),
        trials=cfg.trials, streams="derive(scenario,point,top,block)@6",
    )


def cmd_table3(args) -> OutputDocument:
    from .reports import table3_report

    rows = [(row.pf,) + row.ops_presented for row in table3_report()]
    return _document("table3", ("pf", "module", "order1", "order2"), rows)


def cmd_proposition(args) -> OutputDocument:
    from .reports import proposition_check

    report = proposition_check(args.pf, args.j_max)
    flags = {j: None if ok is None else "yes" if ok else "no" for j, ok in report.comparisons}
    rows = [(j, pe, flags.get(j)) for j, pe in report.entries]
    return _document(
        "proposition", ("j", "pe", "decreased_from_previous"), rows,
        pf=report.pf, j_max=args.j_max, verdict=report.verdict,
    )


AUDIT_DEFAULT_SAMPLES = tuple(k / 10.0 for k in range(1, 10))


def cmd_audit(args) -> OutputDocument:
    from .reports import expansion_audit

    samples = (args.pf,) if args.pf is not None else AUDIT_DEFAULT_SAMPLES
    audit = expansion_audit(samples)
    rows = [
        (s.p, s.composed, s.claimed, s.abs_difference) for s in audit.samples
    ]
    return _document(
        "audit", ("p", "composed", "claimed", "abs_difference"), rows,
        max_abs_difference=audit.max_abs_difference,
    )


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
    p.add_argument("--scenario", default=None)
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


def run() -> NoReturn:
    """Console-script and ``python -m htmr_lab`` entry point.

    Exits with ``main()``'s code by ``os._exit``, once the document is
    flushed, ``--out`` closed and every worker reaped; argparse's
    ``SystemExit`` (``--help``, ``--version``, usage errors) exits normally.
    """
    os._exit(main())
