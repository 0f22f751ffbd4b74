"""The benchmark's server process.

Usage::

    python3 e2ebench/launcher.py --snapshot PATH [--trace-out PATH]

Cold-starts a :class:`ShardedExplanationService` from the snapshot over
the benchmark's generated catalog with the ``repro serve`` fleet
defaults, serves it with :class:`ExplanationServer` on an ephemeral
localhost port and prints ``PORT <n>`` once listening.

Control is by signal, each acknowledged with a line on stdout:
``SIGUSR1`` marks the start of the measured window (``MARK``); ``SIGTERM``
drains and stops the server.  With ``--trace-out`` the layers are
instrumented from outside (``tracer.py``) before anything is built, and
the spans and counters are written to that file at exit.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import FLEET_CONFIG, build_catalog, use_source_tree  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    use_source_tree()

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from repro.service import ExplanationServer, ShardedExplanationService

    fleet = ShardedExplanationService(snapshot=args.snapshot, catalog=build_catalog(),
                                      **FLEET_CONFIG).warm()
    server = ExplanationServer(fleet, host="127.0.0.1", port=0).start()
    if tracer is not None:
        tracer.attach(fleet)

    # Signal handlers only append; the loop below does the printing.
    events = []

    def on_mark(signum, frame):
        if tracer is not None:
            tracer.mark_window()
        events.append("MARK")

    signal.signal(signal.SIGUSR1, on_mark)
    signal.signal(signal.SIGTERM, lambda signum, frame: events.append("STOP"))
    print(f"PORT {server.port}", flush=True)
    parent = os.getppid()
    while os.getppid() == parent:  # also stop if the benchmark died
        time.sleep(0.05)
        if "STOP" in events:
            break
        while events:
            print(events.pop(0), flush=True)
    if tracer is not None:
        tracer.close_window()
    server.stop()
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
