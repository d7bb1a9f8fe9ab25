"""Command-line experiment runner.

Subcommands: synthesize, scale, underactuated, baseline, reference.
Common flags (--out, --seed, --format) override the config file; each
setting has no other source.  Exit code 0 means a tolerance fired, 1 a
failed run (stalled or out of passes included), 2 a config error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, GramsynthError
from .harness import (ExperimentConfig, run_baseline, run_reference,
                      run_scale, run_synthesize, run_underactuated)

_COMMANDS = {
    "synthesize": run_synthesize,
    "scale": run_scale,
    "underactuated": run_underactuated,
    "baseline": run_baseline,
    "reference": run_reference,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramsynth",
        description="Gramian fixed-point steering synthesis experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="root seed (overrides config)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="telemetry export format")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.format is not None:
        cfg.export["format"] = args.format
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
        cfg = _apply_overrides(cfg, args)
        artifact = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GramsynthError as exc:
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    path = artifact.save(cfg.out_dir)
    st = artifact.status
    print(f"{args.command}: {st['criterion']} "
          f"(iterations={st['iterations']}, success={st['success']}) "
          f"-> {path}")
    if st.get("message"):
        print(f"  {st['message']}")
    return 0 if artifact.success else 1


if __name__ == "__main__":
    sys.exit(main())
