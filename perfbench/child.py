"""One ``orgswarm run`` command, timed at its boundaries, in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON [--trace] -- <orgswarm cli args>

Imports orgswarm from the checkout's ``src/``, calls ``orgswarm.cli.main``
and writes RESULT_JSON with the ``perf_counter`` times at which
``run_experiment`` was entered and left, cli.main's return code, the
replicate-iterations run, the peak resident memory of this process and of
its pool workers, and, with ``--trace``, every recorded span.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    result_path, *rest = sys.argv[1:]
    traced = rest[:1] == ["--trace"]
    cli_args = rest[rest.index("--") + 1:]

    sys.path.insert(0, str(SRC))
    import orgswarm
    if Path(orgswarm.__file__).resolve().parent != SRC / "orgswarm":
        print(f"imported orgswarm from {orgswarm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from orgswarm import cli, engine, experiment, stats

    recorder = None
    if traced:
        from tracing import Recorder
        recorder = Recorder()
        recorder.install({"orgswarm.cli": cli, "orgswarm.experiment": experiment,
                          "orgswarm.engine": engine, "orgswarm.stats": stats})

    bounds = {}
    run_experiment = cli.run_experiment

    def timed_run_experiment(*args, **kwargs):
        bounds["enter"] = perf_counter()
        output = run_experiment(*args, **kwargs)
        bounds["exit"] = perf_counter()
        bounds["output"] = output
        return output

    cli.run_experiment = timed_run_experiment
    rc = cli.main(cli_args)

    record = {"rc": rc}
    if "output" in bounds:
        output = bounds.pop("output")
        results = [r for rs in output.results.values() for r in rs]
        record.update(bounds)
        record["rep_iters"] = sum(r.iterations_run for r in results)
        if recorder is not None:
            record["spans"] = recorder.collect(results)
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record["peak_rss_mb"] = kb / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
