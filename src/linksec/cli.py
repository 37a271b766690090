"""Command-line interface: parameter sweeps, figure presets, validation.

Exit codes: 0 on success, 1 on input errors (bad config, bad arguments),
2 when the analytic-vs-Monte-Carlo validation fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import partial

from .config import parse_config, reference_config
from .sweep import FIGURE_IDS, METHODS, figure_preset, rows_to_csv, run_sweep, validate


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _powers(text: str) -> tuple[float, ...]:
    try:
        powers = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be numbers in dB, not {text!r}") from None
    if not all(map(math.isfinite, powers)):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return powers


# Each --method choice and the sweep methods it selects.
_METHODS = {"analytic": ("analytic",), "mc": ("monte-carlo",), "both": METHODS}


def _attach_powers(argv: list[str]) -> list[str]:
    """``--powers VALUE`` as ``--powers=VALUE``.

    After a space, argparse reads a list such as ``-10,0`` as an option.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--powers":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linksec",
        description=(
            "Average secrecy capacity of a surface- or relay-assisted link "
            "under an eavesdropping attack."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the sweep configured in a scenario file")
    p_sweep.add_argument("--config", required=True, help="scenario configuration file")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_val = sub.add_parser("validate", help="check the analytic capacities against the simulator")
    p_val.add_argument("--config", required=True)
    p_val.add_argument(
        "--samples",
        type=int,
        required=True,
        help="Monte Carlo samples per point, even and at least 1000",
    )
    p_val.add_argument("--seed", type=int, required=True)
    p_val.add_argument(
        "--powers",
        type=_powers,
        default="0,10,20",
        help="comma-separated transmit powers in dB (default 0,10,20)",
    )

    p_fig = sub.add_parser("figure", help="emit a preset study as CSV")
    p_fig.add_argument("--id", type=int, choices=FIGURE_IDS, required=True)
    p_fig.add_argument("--out", required=True)
    p_fig.add_argument(
        "--config",
        default=None,
        help="scenario file (default: the built-in reference scenario)",
    )

    for p in (p_sweep, p_fig):
        p.add_argument(
            "--method",
            choices=tuple(_METHODS),
            default=None,
            help="evaluation method override (default: as configured)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_powers(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "validate":
            parsed = parse_config(args.config)
            mc = dataclasses.replace(parsed.mc, samples=args.samples, master_seed=args.seed)
            report = validate(parsed.scenario, args.powers, mc)
            print(report.to_text())
            return 0 if report.passed else 2

        if args.command == "sweep":
            parsed = parse_config(args.config)
            if parsed.sweep is None:
                print("error: the configuration has no sweep section", file=sys.stderr)
                return 1
            spec = parsed.sweep
            if args.method is not None:
                spec = dataclasses.replace(spec, methods=_METHODS[args.method])
            evaluate = partial(run_sweep, spec, parsed.scenario, parsed.mc)
        else:  # figure
            parsed = parse_config(args.config) if args.config else reference_config()
            methods = _METHODS[args.method or "analytic"]
            evaluate = partial(figure_preset, args.id, parsed.scenario, parsed.mc, methods=methods)
        # Opened before any point is evaluated, so an unwritable path fails fast.
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            rows = evaluate()
            fh.write(rows_to_csv(rows))
        print(f"wrote {len(rows)} rows to {args.out}")
        return 0
    except (OSError, ValueError) as exc:
        # ValueError includes ConfigError.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
