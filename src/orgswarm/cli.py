"""Command-line entry point.

    orgswarm run --config cfg.json [--out DIR] [--seed U64] [--replicates N]
                 [--workers N] [--trace none|group|full]
    orgswarm validate --config cfg.json

Exit codes: 0 success, 2 config error, 3 runtime invariant violation or a
dead worker process, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, InvariantViolation
from .experiment import TRACE_LEVELS, parse_config, run_experiment, with_overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orgswarm",
        description="Simulate self-organizing groups searching a binary "
                    "strategy space under organizational communication designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid")
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--out", default=None, help="output directory (overrides config)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="master seed override (u64)")
    run_p.add_argument("--replicates", type=int, default=None,
                       help="replicates per arm override")
    run_p.add_argument("--workers", type=int, default=None,
                       help="worker process count")
    run_p.add_argument("--trace", choices=TRACE_LEVELS, default=None,
                       help="trace verbosity override")

    val_p = sub.add_parser("validate", help="parse and validate a config")
    val_p.add_argument("--config", required=True, help="path to JSON config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            spec = parse_config(args.config)
            print(f"config OK: {len(spec.arms)} arm(s), "
                  f"{spec.arms[0].config.replicates} replicate(s) per arm")
            for arm in spec.arms:
                c = arm.config
                print(f"  {arm.label}: dim={c.dim} agents={c.agents} "
                      f"max_iterations={c.max_iterations}")
            return 0

        spec = parse_config(args.config)
        spec = with_overrides(spec, master_seed=args.seed,
                              replicates=args.replicates, workers=args.workers,
                              trace=args.trace, out_dir=args.out)
        output = run_experiment(spec)
        print(f"wrote {output.out_dir}/summary.csv, arms.csv, comparisons.csv"
              + (", curves/" if spec.trace != "none" else ""))
        for s in output.summaries:
            med = s.median_group_convergence
            med_s = f"{med:.1f}" if med == med else "n/a"
            print(f"  {s.label}: success {s.successes}/{s.n}, "
                  f"median group convergence {med_s}")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
