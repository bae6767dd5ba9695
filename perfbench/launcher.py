"""The system under test, in its own process: `wms-stack` with its defaults.

    python3 perfbench/launcher.py --src <dir holding gridwms> --spool <spool> [--trace <file>]

Runs `gridwms.stack.main` on the spool with an ephemeral port, which it
prints as "gateway listening on <host>:<port>".  SIGINT or SIGTERM stops
the stack the way an operator's Ctrl-C does.  With --trace, the public calls into
each layer are wrapped before the stack is built, and the spans are
written to <file> after it stops.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from pathlib import Path


def _stop_when_orphaned(parent: int) -> None:
    """Stop the stack if the benchmark that started it is gone."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os.kill(os.getpid(), signal.SIGINT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.stdout.reconfigure(line_buffering=True)
    # a parent started in the background may hand down SIGINT ignored;
    # stack.main stops the stack on KeyboardInterrupt, so make both
    # SIGINT and SIGTERM raise it
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    threading.Thread(target=_stop_when_orphaned, args=(os.getppid(),), daemon=True).start()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from gridwms import stack

    code = stack.main(["--spool", args.spool, "--port", "0"])
    if tracer is not None:
        tracer.dump(Path(args.trace))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
