"""Command-line front end: analyze, optimize, sweep, simulate, report.

All commands are deterministic: the same inputs produce byte-identical
output.  Exit codes: 0 success, 1 usage, 2 invalid input, 3 infeasible
operating point, 4 simulation regression.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import datasets
from .binding import BindingResult, bind
from .codec import _fmt_g, as_fraction
from .dfg import Dfg, load_dfg
from .errors import InfeasibleError, ParseError, PumpwiseError
from .planner import (
    STRATEGIES,
    PumpPlan,
    SweepRow,
    _make_plans,
    compute_throughput,
    graph_throughput,
    load_plan,
    max_pump_factor,
    max_single_pump_factor,
    save_plan,
    sweep,
)
from .sim import SimConfig, default_warmup, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_SIM_REGRESSION = 4

SIM_REGRESSION_LIMIT = Fraction(5, 100)
SWEEP_CSV_HEADER = (
    "throughput,dsp_base,dsp_s-pump,dsp_m-pump,"
    "dsp_base_pct,dsp_s-pump_pct,dsp_m-pump_pct"
)


def _fmt_num(x) -> str:
    fx = as_fraction(x)
    try:
        if fx.denominator == 1:
            return str(fx.numerator)
        if abs(float(fx)) >= sys.float_info.min:  # a non-integer is nonzero
            return repr(float(fx))
    except (OverflowError, ValueError):  # beyond float range or the int-string limit
        pass
    return _fmt_g(fx)


def _fmt_pct(x) -> str:
    """A percentage, never negative, to two decimals: its exact value rounded half to even."""
    whole, cents = divmod(round(as_fraction(x) * 100), 100)
    return f"{whole}.{cents:02d}"


def _resolve(pathstr: str) -> Path:
    p = Path(pathstr)
    if p.exists():
        return p
    try:
        return datasets.path(pathstr)
    except FileNotFoundError:
        raise ParseError(f"{pathstr}: no such file or bundled dataset") from None


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = []
    for cells in [headers] + rows:
        parts = [cells[0].ljust(widths[0])]
        parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines)


def _sweep_csv(rows: list[SweepRow]) -> str:
    ordered = sorted(rows, key=lambda r: (r.throughput_msps, r.f_base_mhz))
    lines = [SWEEP_CSV_HEADER]
    for r in ordered:
        lines.append(
            ",".join(
                [
                    _fmt_num(r.throughput_msps),
                    str(r.dsp_base),
                    str(r.dsp_s_pump),
                    str(r.dsp_m_pump),
                    _fmt_pct(r.dsp_base_pct),
                    _fmt_pct(r.dsp_s_pump_pct),
                    _fmt_pct(r.dsp_m_pump_pct),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _plan_table(dfg: Dfg, plan: PumpPlan, binding: BindingResult) -> str:
    rows = []
    for t in dfg.tasks:
        e = plan.tasks[t.name]
        rows.append(
            [
                t.name,
                str(e.m),
                _fmt_num(e.f_mhz),
                str(e.ii),
                str(binding.per_task[t.name].n_fu_dsp),
            ]
        )
    return _table(["task", "factor", "f_mhz", "ii", "dsp"], rows)


def _cross_check(args, dfg: Dfg, plan: PumpPlan, prefix: str = "", trace=None):
    """Simulate ``plan`` and compare it with the analytic model.

    Returns the report, the analytic throughput and their relative error.
    The simulator models compute only, so the analytic reference excludes
    the memory bound.  The default warmup leaves at least half the
    iterations to measure.
    """
    warmup = args.warmup
    if warmup is None:
        warmup = min(default_warmup(dfg, plan), args.iterations // 2)
    cfg = SimConfig(args.iterations, warmup)
    report = simulate(dfg, plan, cfg, trace_path=trace)
    window = cfg.iterations - cfg.warmup
    if window < 100:  # only once ``simulate`` has accepted the plan
        print(f"warning: {prefix}measurement window too small ({window} samples)",
              file=sys.stderr)
    analytic = compute_throughput(dfg, plan)
    return report, analytic, abs(report.throughput_msps - analytic) / analytic


def _regression_error(prefix: str, err: Fraction) -> None:
    print(
        f"error: {prefix}simulated throughput deviates {float(err) * 100:.3f} % "
        f"from the analytic model (limit 5 %)",
        file=sys.stderr,
    )


# --- commands ---------------------------------------------------------------


def cmd_analyze(args) -> int:
    dfg = load_dfg(_resolve(args.dfg), f_base_mhz=args.f_base)
    rows = []
    for t in dfg.tasks:
        rows.append(
            [
                t.name,
                str(t.ii_min_at(args.f_base)),
                str(t.n_op_dsp),
                _fmt_num(t.f_max_mhz),
                str(max_pump_factor(t.f_max_mhz, args.f_base, t.n_op_dsp)),
            ]
        )
    print(_table(["task", "ii_min", "n_op_dsp", "f_max_mhz", "max_pump"], rows))
    s = max_single_pump_factor(dfg, args.f_base)
    print(f"uniform single-clock pump factor: {s}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    dfg = load_dfg(_resolve(args.dfg), f_base_mhz=args.f_base)
    plans = _make_plans(dfg, args.f_base, (args.strategy, "base"))
    plan = plans[args.strategy]
    dsp_before = bind(dfg, plans["base"]).total_dsp
    thr_before = graph_throughput(dfg, plans["base"])
    binding = bind(dfg, plan)
    thr = graph_throughput(dfg, plan)
    out = args.out or f"{Path(args.dfg).stem}.{args.strategy}{_fmt_num(args.f_base)}.plan"
    save_plan(plan, out)
    print(_plan_table(dfg, plan, binding))
    if args.strategy == "s-pump":  # one shared clock
        print(f"kernel clock: {_fmt_num(plan.tasks[dfg.tasks[0].name].f_mhz)} MHz")
    change = f"{_fmt_g(thr)} msps preserved"
    if thr != thr_before:  # s-pump raises non-DSP clocks without raising their II
        change = f"{_fmt_g(thr_before)} -> {_fmt_g(thr)} msps"
    print(f"DSP {dsp_before} -> {binding.total_dsp}, throughput {change}")
    print(f"plan written: {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    dfg = load_dfg(_resolve(args.dfg))
    rows = sweep(dfg, args.f_lo, args.f_hi, args.step)
    if not rows:
        print("warning: no feasible base clocks in range", file=sys.stderr)
    csv_text = _sweep_csv(rows)
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        Path(args.out).write_text(csv_text)
        print(f"{len(rows)} rows written: {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    dfg = load_dfg(_resolve(args.dfg))
    plan = load_plan(args.plan)
    report, analytic, err = _cross_check(args, dfg, plan, trace=args.trace)
    print(f"throughput: {_fmt_g(report.throughput_msps)} msps")
    print(f"analytic:   {_fmt_g(analytic)} msps")
    print(f"relative error: {float(err) * 100:.3f} %")
    print("channel occupancy:")
    for c, peak in zip(dfg.channels, report.peaks):
        print(f"  {c.src}->{c.dst}: peak {peak}")
    print("firings:")
    for t in dfg.tasks:
        print(f"  {t.name}: {report.iterations}")
    if err > SIM_REGRESSION_LIMIT:
        _regression_error("", err)
        return EXIT_SIM_REGRESSION
    return EXIT_OK


def cmd_report(args) -> int:
    # every output is computed before the first file is written, so an
    # invalid input leaves nothing behind
    dfg = load_dfg(_resolve(args.dfg), f_base_mhz=args.f_base)
    plans = _make_plans(dfg, args.f_base, STRATEGIES)
    f_lo = args.f_lo if args.f_lo is not None else args.f_base
    f_hi = args.f_hi if args.f_hi is not None else dfg.min_f_max_mhz
    rows = sweep(dfg, f_lo, f_hi, args.step)

    sim_header = ["strategy", "analytic_msps", "simulated_msps", "rel_err_pct"]
    sim_rows = []
    errs = {}
    for s, plan in plans.items():
        report, analytic, errs[s] = _cross_check(args, dfg, plan, prefix=f"{s}: ")
        sim_rows.append(
            [s, _fmt_g(analytic), _fmt_g(report.throughput_msps),
             f"{float(errs[s]) * 100:.3f}"]
        )

    summary = []
    summary.append(f"graph: {args.dfg}")
    summary.append(f"base clock: {_fmt_num(args.f_base)} MHz")
    summary.append(f"effective throughput: {_fmt_g(graph_throughput(dfg, plans['base']))} msps")
    summary.append("")
    for s, plan in plans.items():
        binding = bind(dfg, plan)
        summary.append(f"[{s}]")
        summary.append(_plan_table(dfg, plan, binding))
        summary.append(f"total DSP: {binding.total_dsp}")
        summary.append("")
    summary.append("simulation cross-check:")
    summary.append(_table(sim_header, sim_rows))
    summary.append("")
    summary.append(f"sweep rows: {len(rows)} ({_fmt_num(f_lo)}..{_fmt_num(f_hi)} "
                   f"MHz step {_fmt_num(args.step)})")
    text = "\n".join(summary) + "\n"
    if not rows:
        print("warning: no feasible base clocks in range", file=sys.stderr)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for s, plan in plans.items():
        save_plan(plan, outdir / f"plan-{s}.json")
    (outdir / "sweep.csv").write_text(_sweep_csv(rows))
    (outdir / "simcheck.csv").write_text(
        "".join(",".join(cells) + "\n" for cells in [sim_header] + sim_rows)
    )
    (outdir / "summary.txt").write_text(text)
    sys.stdout.write(text)
    failed = [s for s, err in errs.items() if err > SIM_REGRESSION_LIMIT]
    for s in failed:
        _regression_error(f"{s}: ", errs[s])
    return EXIT_SIM_REGRESSION if failed else EXIT_OK


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


_ITERATIONS_HELP = "iterations every task fires (default: 10000)"
_WARMUP_HELP = (
    "leading iterations left out of the measurement "
    "(default: min(default_warmup, iterations // 2), where default_warmup "
    "is max(100, 10 x the deepest pipeline))"
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pumpwise",
        description="Task-level multi-pumping: model, optimize, and verify dataflow kernels.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("analyze", help="per-task II, op counts, and pump factors")
    p.add_argument("dfg", help="graph description file or bundled dataset name")
    p.add_argument("--f-base", type=_rational, required=True, metavar="MHZ")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("optimize", help="select pump factors and write a plan file")
    p.add_argument("dfg")
    p.add_argument("--f-base", type=_rational, required=True, metavar="MHZ")
    p.add_argument("--strategy", choices=STRATEGIES, default="m-pump")
    p.add_argument("--out", default=None, help="plan file path")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="throughput-vs-DSP sweep over base clocks")
    p.add_argument("dfg")
    p.add_argument("--f-lo", type=_rational, required=True, metavar="MHZ",
                   help="lowest base clock of the sweep")
    p.add_argument("--f-hi", type=_rational, required=True, metavar="MHZ",
                   help="highest base clock of the sweep")
    p.add_argument("--step", type=_rational, required=True, metavar="MHZ",
                   help="base clock increment")
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="measure a plan with the multi-clock simulator")
    p.add_argument("dfg")
    p.add_argument("plan", help="plan file produced by optimize")
    p.add_argument("--iterations", type=int, default=10000, help=_ITERATIONS_HELP)
    p.add_argument("--warmup", type=int, default=None, help=_WARMUP_HELP)
    p.add_argument("--trace", default=None, help="write a CSV trace of every start and completion")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="plans, sweep, and simulation cross-check in one bundle")
    p.add_argument("dfg")
    p.add_argument("--f-base", type=_rational, required=True, metavar="MHZ")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--f-lo", type=_rational, default=None, metavar="MHZ",
                   help="lowest base clock of the sweep (default: --f-base)")
    p.add_argument("--f-hi", type=_rational, default=None, metavar="MHZ",
                   help="highest base clock of the sweep (default: the slowest task's f_max)")
    p.add_argument("--step", type=_rational, default=Fraction(5), metavar="MHZ",
                   help="base clock increment (default: 5 MHz)")
    p.add_argument("--iterations", type=int, default=10000, help=_ITERATIONS_HELP)
    p.add_argument("--warmup", type=int, default=None, help=_WARMUP_HELP)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (PumpwiseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(e, InfeasibleError) else EXIT_INVALID


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
