"""Command-line entry point.

    orgswarm run --config cfg.json [--out DIR] [--seed U64] [--replicates N]
                 [--workers N] [--trace none|group|full]
    orgswarm validate --config cfg.json

Exit codes: 0 success, 2 config error (also a count field or agents x dim of 2**59
or more, and an integer literal past Python's digit limit), 3 a worker process
died, 4 I/O error, 5 out of memory (numpy could not allocate an arm's agents x dim
arrays).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, InvariantViolation
from .experiment import TRACE_LEVELS, parse_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orgswarm",
        description="Simulate self-organizing groups searching a binary "
                    "strategy space under organizational communication designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags left out are absent from the namespace; each dest is a config key
    run_p = sub.add_parser("run", help="run an experiment grid",
                           argument_default=argparse.SUPPRESS)
    run_p.add_argument("--config", required=True, help="path to JSON config")
    run_p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory override")
    run_p.add_argument("--seed", dest="master_seed", metavar="U64", type=int,
                       help="master seed override (u64)")
    run_p.add_argument("--replicates", type=int, help="replicates per arm override")
    run_p.add_argument("--workers", type=int, help="worker process count")
    run_p.add_argument("--trace", help=f"trace verbosity override: {'|'.join(TRACE_LEVELS)}")

    val_p = sub.add_parser("validate", help="parse and validate a config")
    val_p.add_argument("--config", required=True, help="path to JSON config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            spec = parse_config(args.config)
            print(f"config OK: {len(spec.arms)} arm(s)")
            for arm in spec.arms:
                c = arm.config
                print(f"  {arm.label}: replicates={c.replicates} dim={c.dim} "
                      f"agents={c.agents} max_iterations={c.max_iterations}")
            return 0

        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        spec = parse_config(args.config, **overrides)
        output = run_experiment(spec)
        print(f"wrote {output.out_dir}/summary.csv, arms.csv, comparisons.csv, goals.csv"
              + {"none": "", "group": ", curves/", "full": ", curves/, traces/"}[spec.trace])
        for s in output.summaries:  # the median is nan when no replicate converged
            med = f"{s.median_group_convergence:.1f}" if s.successes else "n/a"
            print(f"  {s.label}: success {s.successes}/{s.n}, median group convergence {med}")
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InvariantViolation as e:  # a dead worker process
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 4
    except MemoryError as e:
        print(f"out of memory: {e}; lower agents or dim", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
