"""Traced `lamptwist` child for cli-session: times the import, records spans, runs cli.main.

    python3 perfbench/child.py SPANS_JSON SPAWN_TIME OP_ID [-- ARGV...]

SPAWN_TIME is the parent's `time.time()` just before it started this process,
so `interp_s` covers process creation and interpreter start.  Without `--`
the child only measures start-up and import (the probe used by the in-process
workloads).  The exit code is the CLI's.
"""

import time

STARTED = time.time()

import sys  # noqa: E402

import spans  # noqa: E402


def main(argv):
    path, spawned, op_id = argv[0], float(argv[1]), int(argv[2])
    cli_argv = argv[argv.index("--") + 1:] if "--" in argv else None
    t0 = time.perf_counter()
    import lamptwist.cli

    import_s = time.perf_counter() - t0
    payload = {
        "interp_s": STARTED - spawned,
        "import_s": import_s,
        "numpy_loaded": int("numpy" in sys.modules),
    }
    rc = 0
    if cli_argv is not None:
        recorder = spans.Recorder()
        recorder.install()
        with recorder.op_span(op_id):
            rc = lamptwist.cli.main(cli_argv)
        payload.update(recorder.dump())
    spans.write(path, payload)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
