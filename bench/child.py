"""Run one spde-ch CLI command in this process, for the benchmark.

Usage: python3 child.py [--trace SPANS_FILE] COMMAND --config ... [CLI args]

The CLI runs through its real entry point, ``spde_ch.cli.main``.  The
only hook in a timed run notes the first entry into
``spde_ch.solver.simulate`` (CLOCK_MONOTONIC, shared with the parent) and
prints it on stderr as ``bench:first_simulate=<seconds>`` when the command
ends.  With ``--trace`` every layer is wrapped by ``tracer.Tracer`` instead.
Both modes print the end of the command as ``bench:cli_done=<seconds>``;
a traced child writes the spans and per-layer metrics to SPANS_FILE only
after that.
"""

import sys
import time

from tracer import Tracer, replace_everywhere


def _hook_first_simulate(stamp):
    import spde_ch.cli  # noqa: F401 - loads every module that imports simulate
    import spde_ch.solver

    original = spde_ch.solver.simulate

    def simulate(*args, **kwargs):
        if not stamp:
            stamp.append(time.monotonic())
        return original(*args, **kwargs)

    replace_everywhere(original, simulate)


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    stamp = []
    if trace_path is None:
        _hook_first_simulate(stamp)
    else:
        tracer = Tracer()
        tracer.install()
    import spde_ch.cli
    code = spde_ch.cli.main(argv)
    sys.stdout.flush()
    print(f"bench:cli_done={time.monotonic()!r}", file=sys.stderr)
    if trace_path is not None:
        tracer.write(trace_path)
    elif stamp:
        print(f"bench:first_simulate={stamp[0]!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
