"""A minimal client for the gateway's line protocol, kept apart from the
program's own client so that client-side timings do not move with it."""

from __future__ import annotations

import base64
import json
import socket
import time

CHUNK = 64 * 1024  # the gateway's sandbox chunk size, before base64


class CallFailed(Exception):
    def __init__(self, cmd: str, body: dict):
        self.code = body.get("code", "?")
        super().__init__(f"{cmd}: {self.code}: {body.get('message', '')}")


class Conn:
    def __init__(self, addr: tuple[str, int], user: str, timeout: float = 60.0):
        self.user = user
        self.sock = socket.create_connection(addr, timeout=timeout)
        self.fh = self.sock.makefile("rwb")
        self.n = 0

    def close(self) -> None:
        self.fh.close()
        self.sock.close()

    def call(self, cmd: str, **args) -> dict:
        self.n += 1
        req_id = f"b{self.n}"
        line = json.dumps({"id": req_id, "cmd": cmd, "user": self.user, "args": args})
        self.fh.write(line.encode() + b"\n")
        self.fh.flush()
        raw = self.fh.readline()
        if not raw:
            raise ConnectionError("gateway closed the connection")
        reply = json.loads(raw)
        if reply.get("id") != req_id:
            raise ConnectionError(f"reply id {reply.get('id')!r} for request {req_id!r}")
        if reply.get("status") != "ok":
            raise CallFailed(cmd, reply.get("body") or {})
        return reply.get("body") or {}

    def timed(self, cmd: str, **args) -> tuple[dict, float]:
        """The reply and the call's client-side latency in ms."""
        t0 = time.perf_counter()
        body = self.call(cmd, **args)
        return body, (time.perf_counter() - t0) * 1000

    def upload(self, job: str, name: str, data: bytes) -> int:
        """Send one input-sandbox file in chunks; returns the calls made."""
        total = max(1, -(-len(data) // CHUNK))
        for i in range(total):
            chunk = data[i * CHUNK:(i + 1) * CHUNK]
            self.call("sandbox-put", job=job, name=name, seq=i + 1,
                      data=base64.b64encode(chunk).decode(), eof=i + 1 == total)
        return total

    def download(self, job: str, name: str) -> bytes:
        out, seq = b"", 1
        while True:
            body = self.call("output-get", job=job, name=name, seq=seq)
            out += base64.b64decode(body["data"])
            if body.get("eof"):
                return out
            seq += 1
