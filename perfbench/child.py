"""Fresh-interpreter helper for the measurements that need a new process.

    python3 perfbench/child.py setup WORKLOAD SEED [--trace]
        import ngd and ngd.cli, build the workload's inputs and operations,
        print "ready" and exit.
    python3 perfbench/child.py import MODULE
        import MODULE and print the perf_counter stamp taken before it.
    python3 perfbench/child.py cli --trace -- ARGS...
        install the trace wrappers, then run `ngd ARGS...` and exit with
        its code (the traced twin of a cold start).

Each mode ends its timed work with clock.child_report, which tells the
parent when the work ended and how fast this process was running.  With
--trace the wrappers are installed right after the import, so the
difference from an untraced child is the cost of tracing set-up.
"""

from __future__ import annotations

import importlib
import sys
import time

import clock
import workloads as wl


def _traced():
    import layers
    import tracer

    tracer.install(tracer.Tracer(), layers.targets())


def main(argv):
    mode = argv[0]
    if mode == "setup":
        name, seed = argv[1], int(argv[2])
        wl.load_ngd()
        if "--trace" in argv:
            _traced()
        w = wl.WORKLOADS[name]
        w.ops(w.build(seed, w.params), w.params)
        clock.child_report(time.perf_counter())
        print("ready", flush=True)
        return 0
    if mode == "import":
        sys.path.insert(0, str(wl.SRC))
        t0 = time.perf_counter()
        importlib.import_module(argv[1])
        clock.child_report(time.perf_counter())
        print(repr(t0))
        return 0
    if mode == "cli":
        wl.load_ngd()
        if "--trace" in argv:
            _traced()
        from ngd import cli

        code = cli.main(argv[argv.index("--") + 1:])
        clock.child_report(time.perf_counter())
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
