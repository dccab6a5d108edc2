"""One benchmark operation: a fresh process that runs one densevoc command.

Usage: python3 child.py STATS_JSON SRC_DIR TRACE(0|1) LOADS -- CLI_ARGS...

Runs ``densevoc.cli.main(CLI_ARGS)`` exactly as the ``densevoc`` entry point
does, and writes its clock stamps (``time.monotonic``, which is shared by
all processes on the host) to STATS_JSON: when the import finished, when
each ``formats.load_dataset`` call returned, and when the command returned.
Setup ends with the LOADS-th load (or with the import when LOADS is 0). The
host-speed probe runs right after setup and right after the command, outside
both timed intervals. With TRACE=1 the layer wrappers of ``tracing.py`` are
installed first.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    stats_path, src_dir, trace, loads = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py STATS_JSON SRC_DIR TRACE LOADS -- CLI_ARGS...")
    argv = sys.argv[6:]
    setup_loads = int(loads)
    sys.path.insert(0, src_dir)

    start = time.perf_counter()
    from densevoc import cli, formats

    import_s = time.perf_counter() - start
    import_end = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"densevoc imported from {cli.__file__}, not from {src_dir}")

    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks = {}  # set when setup ends: the probe, its first duration, the work start

    def end_setup():
        from probe import Probe  # loaded and built here so that setup_s excludes it

        marks["probe"] = Probe()
        marks["probe_s"] = [marks["probe"].seconds()]
        marks["work_start"] = time.monotonic()

    load_returns = []
    load_dataset = formats.load_dataset

    def stamped_load(*args, **kwargs):
        records = load_dataset(*args, **kwargs)
        load_returns.append(time.monotonic())
        if len(load_returns) == setup_loads:
            end_setup()
        return records

    formats.load_dataset = stamped_load
    if setup_loads == 0:
        end_setup()
    rc = cli.main(argv)
    end = time.monotonic()
    if marks:
        marks["probe_s"].append(marks["probe"].seconds())
    stats = {
        "rc": rc,
        "import_s": import_s,
        "import_end": import_end,
        "load_returns": load_returns,
        "work_start": marks.get("work_start"),
        "end": end,
        "probe_s": marks.get("probe_s"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.report() if tracer else None,
    }
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
