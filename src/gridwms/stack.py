"""Run the whole system in one process: gateway, manager, executor, and
log monitor as threads over a shared spool.

This is the desk-scale deployment (and the test harness backbone); for
crash testing, each component also runs standalone via its own module.
"""

from __future__ import annotations

import argparse
import logging
import os
import threading
import time
from pathlib import Path

from .executor import ExecutorService
from .gateway import DEFAULT_PORT, GatewayCore, GatewayServer
from .layout import SpoolLayout
from .logmonitor import LogMonitor
from .manager import WorkloadManager

log = logging.getLogger("gridwms.stack")


class Stack:
    def __init__(
        self,
        spool: Path | str,
        host: str = "127.0.0.1",
        port: int = 0,
        resources_dir: Path | str | None = None,
        fake_cpu_seconds: float | None = None,
        match_retries: int = 3,
        stuck_after: float = 30.0,
        strategy: str = "best",
    ):
        self.spool = SpoolLayout(Path(spool)).ensure()
        self.server = GatewayServer(GatewayCore(self.spool, resources_dir), host, port)
        self.address = f"{self.server.address[0]}:{self.server.address[1]}"
        self.manager = WorkloadManager(
            self.spool,
            resources_dir=resources_dir,
            gateway_addr=self.address,
            match_retries=match_retries,
            stuck_after=stuck_after,
            strategy=strategy,
        )
        self.executor = ExecutorService(
            self.spool,
            resources_dir=resources_dir,
            fake_cpu_seconds=fake_cpu_seconds,
            gateway_addr=self.address,
        )
        self.monitor = LogMonitor(self.spool)
        # the components of one process read the same event files: one
        # store, so one cache of their events
        self.manager.lb = self.monitor.store = self.server.core.lb
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def start(self) -> "Stack":
        self._threads = [
            threading.Thread(
                target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, name="gateway", daemon=True
            ),
            threading.Thread(target=self.manager.run_forever, args=(self._stop,), name="manager", daemon=True),
            threading.Thread(target=self.executor.run_forever, args=(self._stop,), name="executor", daemon=True),
            threading.Thread(target=self.monitor.run_forever, args=(self._stop,), name="logmonitor", daemon=True),
        ]
        for t in self._threads:
            t.start()
        return self

    def dead_components(self) -> list[str]:
        """Names of component threads that have ended while the stack runs."""
        return [t.name for t in self._threads if not t.is_alive()]

    def stop(self) -> None:
        self._stop.set()
        self.server.shutdown()
        self.server.server_close()
        for t in self._threads:
            t.join(timeout=5.0)

    def __enter__(self) -> "Stack":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wms-stack", description="run all components in one process")
    parser.add_argument("--spool", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=int(os.environ.get("WMS_GATEWAY_PORT", DEFAULT_PORT)))
    parser.add_argument("--resources", default=None)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    stack = Stack(args.spool, host=args.host, port=args.port, resources_dir=args.resources)
    stack.start()
    print(f"gateway listening on {stack.address}")
    try:
        while not (dead := stack.dead_components()):
            time.sleep(0.5)
    except KeyboardInterrupt:
        stack.stop()
        return 0
    # a stack missing a component would accept work that nothing finishes
    log.error("component thread died: %s; stopping the stack", ", ".join(dead))
    stack.stop()
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
