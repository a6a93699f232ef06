"""Child side of one benchmark invocation: a fresh interpreter running the divcorr CLI.

    python3 bench/launch.py SIDE_FILE MODE [divcorr CLI arguments ...]

with `src/` on PYTHONPATH.  Every `cmd_*` subcommand of divcorr.cli is
wrapped so that the CLOCK_MONOTONIC instants at which computing starts and
ends, and the process CPU time at both, go to SIDE_FILE as JSON; the runner
holds the instant it started this process, so set-up time is interpreter
start, `import divcorr` and argument parsing.  MODE is `run` for a plain
invocation, or `trace` to also record spans around the layer functions (see
spans.py).

The exit code is the CLI's.
"""

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    side_file, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from divcorr import cli

    record = {"t_start": None, "t_end": None, "cpu_start": None, "cpu_end": None}
    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    def timed(fn):
        if recorder is not None:
            fn = recorder.wrap("cli", fn)

        def command(args):
            record["t_start"], record["cpu_start"] = _now(), time.process_time()
            try:
                return fn(args)
            finally:
                record["t_end"], record["cpu_end"] = _now(), time.process_time()

        return command

    for name, fn in list(vars(cli).items()):
        if name.startswith("cmd_"):
            setattr(cli, name, timed(fn))
    try:
        rc = cli.main(argv)
    finally:
        if recorder is not None:
            record["spans"] = recorder.spans
        with open(side_file, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
