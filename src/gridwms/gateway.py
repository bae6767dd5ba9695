"""Network gateway: the daemon the user interface talks to.

Wire protocol: one JSON object per line over TCP, UTF-8.

    request:  {"id": <text>, "cmd": <text>, "user": <text>, "args": {..}}
    response: {"id": <echoed>, "status": "ok"|"error", "body": {..}}

Every well-formed request line receives exactly one response line, even
for unknown commands.  Identity is the asserted user field; there is no
certificate stack at this scale.

Submission is validate-first: invalid JDL gets an error response and
leaves no bookkeeping trace.  A valid job is registered immediately; if
it declares an input sandbox, pipeline entry is held until every declared
file has been uploaded (the upload API requires a registered job id), and
released automatically on completion.
"""

from __future__ import annotations

import argparse
import base64
import json
import logging
import os
import socketserver
import threading
from pathlib import Path

from .accounting import Ledger
from .bookkeeping import (
    TERMINAL_STATES,
    BookkeepingStore,
    Event,
    JobState,
    Query,
    QueryPredicate,
)
from .broker import ResourceRegistry
from .errors import UnauthorizedError, UnknownJobError, WmsError
from .faults import crash_point
from .filequeue import FileQueue
from .jdl import DagDescription, validate_dag, validate_description, validate_job
from .layout import SpoolLayout
from .util import fsync_dir, now_ms, random_suffix

log = logging.getLogger("gridwms.gateway")

DEFAULT_PORT = 7846
CHUNK_SIZE = 64 * 1024  # pre-base64 bytes per sandbox chunk

# the Gateway's sseqs: 1 Registered, 2 Accepted, 3.. the user tags
_SSEQ_RELEASED = 0


class BadRequestError(WmsError):
    code = "BadRequest"


class UnknownFileError(WmsError):
    code = "UnknownFile"


class ChunkGapError(WmsError):
    code = "ChunkGap"


def new_job_id() -> str:
    import datetime

    date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%d")
    return f"wms-{date}-{random_suffix(3)}"


class GatewayCore:
    """Command handling, shared by every connection."""

    def __init__(self, spool: SpoolLayout, resources_dir: Path | str | None = None):
        self.spool = spool.ensure()
        self.lb = BookkeepingStore(spool.lb_root)
        self.requests = FileQueue(spool.wm_requests)
        self.registry = ResourceRegistry(
            static_dir=Path(resources_dir) if resources_dir else spool.resources_static,
            live_dir=spool.resources_live,
        )
        self.ledger = Ledger(spool.ledger_file, spool.accounts_file)
        self._uploads: dict[tuple[str, str], int] = {}  # (job, name) -> next chunk seq
        self._lock = threading.Lock()

    # -- helpers ------------------------------------------------------------

    def _record(self, job_id: str):
        if not job_id or not self.lb.exists(job_id):
            raise UnknownJobError(f"unknown job {job_id!r}")
        return self.lb.job_record(job_id)

    def _require_owner(self, record, user: str) -> None:
        if record.owner != user:
            raise UnauthorizedError(f"job {record.job} belongs to {record.owner!r}")

    def _release(self, kind: str, job_id: str) -> None:
        """Hand a registered job to the manager: the request names it, and
        the manager reads the rest from its record."""
        self.requests.enqueue({"kind": kind, "job": job_id})
        crash_point("gateway.after_enqueue")

    def _maybe_release(self, job_id: str) -> bool:
        """Enqueue the held request once every declared input file exists.

        The first upload to complete the sandbox appends the job's Released
        event, whose fixed sseq makes any later append a duplicate, and only
        that upload enqueues.  A crash between the append and the enqueue
        leaves a job that the manager's stuck scan re-drives.  A restarted
        gateway re-derives the manifest from the stored JDL, so no in-memory
        hold state is needed for correctness.
        """
        record = self._record(job_id)
        if record.state not in (JobState.SUBMITTED, JobState.WAITING):
            return False
        try:
            desc = validate_description(record.jdl)
        except WmsError:
            return False
        if not self.spool.inputs_complete(job_id, desc.input_sandbox):
            return False
        if not self.lb.log_event(Event(job_id, "Gateway", _SSEQ_RELEASED, now_ms(), "Released", {})):
            return False  # already released
        self._release("submit_dag" if isinstance(desc, DagDescription) else "submit", job_id)
        return True

    # -- commands ---------------------------------------------------------------

    def dispatch(self, cmd: str, user: str, args: dict) -> dict:
        handler = {
            "submit": self.cmd_submit,
            "submit-dag": self.cmd_submit_dag,
            "cancel": self.cmd_cancel,
            "status": self.cmd_status,
            "query": self.cmd_query,
            "save-state": self.cmd_save_state,
            "get-state": self.cmd_get_state,
            "output-list": self.cmd_output_list,
            "output-get": self.cmd_output_get,
            "sandbox-put": self.cmd_sandbox_put,
            "sandbox-get": self.cmd_output_get,  # retrieval shares the chunk shape
            "resources": self.cmd_resources,
            "account-balance": self.cmd_account_balance,
            "resubmit": self.cmd_resubmit,
        }.get(cmd)
        if handler is None:
            raise BadRequestError(f"unknown cmd {cmd!r}")
        return handler(user, args)

    def _register(self, user: str, jdl_text: str, user_tags: dict[str, str] | None = None) -> str:
        registered = {"jdl": jdl_text, "owner": user}
        job_id = new_job_id()
        while not self.lb.log_event(Event(job_id, "Gateway", 1, now_ms(), "Registered", registered)):
            job_id = new_job_id()  # the id is another job's: draw again
        crash_point("gateway.after_register")
        ts = now_ms()
        self.lb.log_events(
            [Event(job_id, "Gateway", 2, ts, "Accepted", {})]
            + [
                Event(job_id, "Gateway", 3 + i, ts, "UserTag", {"name": name, "value": value})
                for i, (name, value) in enumerate(sorted((user_tags or {}).items()))
            ]
        )
        return job_id

    def cmd_submit(self, user: str, args: dict) -> dict:
        jdl_text = args.get("jdl")
        if not isinstance(jdl_text, str):
            raise BadRequestError("submit needs a 'jdl' string")
        jd = validate_job(jdl_text)  # validate first: invalid JDL leaves no trace
        job_id = self._register(user, jd.to_jdl(), jd.user_tags)
        held = bool(jd.input_sandbox)
        if not held:
            self._release("submit", job_id)
        return {
            "job": job_id,
            "held_for_sandbox": held,
            "warnings": [v.as_dict() for v in jd.warnings],
        }

    def cmd_submit_dag(self, user: str, args: dict) -> dict:
        jdl_text = args.get("jdl")
        if not isinstance(jdl_text, str):
            raise BadRequestError("submit-dag needs a 'jdl' string")
        dag = validate_dag(jdl_text)
        job_id = self._register(user, dag.to_jdl())
        held = bool(dag.input_sandbox)
        if not held:
            self._release("submit_dag", job_id)
        return {"job": job_id, "held_for_sandbox": held}

    def cmd_cancel(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        self._require_owner(record, user)
        if record.state in TERMINAL_STATES:
            raise BadRequestError(f"job {record.job} is already {record.state.value}")
        self.requests.enqueue({"kind": "cancel", "job": record.job})
        return {}

    def cmd_resubmit(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        self._require_owner(record, user)
        state_seq = args.get("from_state")
        if state_seq is not None:
            state_seq = int(state_seq)
            self.lb.get_state(record.job, state_seq)  # validate now
        self.requests.enqueue({"kind": "resubmit_from_state", "job": record.job, "state_seq": state_seq})
        return {}

    def cmd_status(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        body = {
            "job": record.job,
            "owner": record.owner,
            "state": record.state.value,
            "attempt": record.attempt,
            "destination": record.destination,
            "exitCode": record.exit_code,
            "userTags": record.user_tags,
            "jdl": record.jdl,
            "checkpointSeqs": [seq for seq, _ in record.checkpoint_states],
        }
        if args.get("verbose"):
            body["events"] = [
                {"src": e.source, "sseq": e.sseq, "ts": e.ts, "kind": e.kind, "payload": e.payload}
                for e in record.events
            ]
        return body

    def cmd_query(self, user: str, args: dict) -> dict:
        raw = args.get("predicates")
        if not isinstance(raw, list) or not raw:
            raise BadRequestError("query needs a non-empty 'predicates' list")
        predicates = []
        for entry in raw:
            field = entry.get("field")
            values = entry.get("values")
            if not isinstance(field, str) or not isinstance(values, list):
                raise BadRequestError("each predicate needs 'field' and 'values'")
            predicates.append(QueryPredicate(field, tuple(str(v) for v in values)))
        return {"jobs": self.lb.query(Query(tuple(predicates)))}

    def cmd_save_state(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        self._require_owner(record, user)
        pairs = args.get("pairs")
        if not isinstance(pairs, list):
            raise BadRequestError("save-state needs 'pairs' as a list of [var, value]")
        seq = self.lb.save_state(record.job, [(str(k), str(v)) for k, v in pairs])
        return {"seq": seq}

    def cmd_get_state(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        seq = args.get("seq")
        pairs = self.lb.get_state(record.job, int(seq) if seq is not None else None)
        return {"pairs": [[k, v] for k, v in pairs]}

    def cmd_output_list(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        out_dir = self.spool.output_dir(record.job)
        files = []
        if out_dir.is_dir():
            for path in sorted(out_dir.rglob("*")):
                if path.is_file():
                    files.append(str(path.relative_to(out_dir)))
        return {"files": files}

    def cmd_output_get(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        name = args.get("name", "")
        seq = int(args.get("seq", 1))
        if seq < 1:
            raise BadRequestError("chunk seq starts at 1")
        if not name or name.startswith("/") or ".." in Path(name).parts:
            raise BadRequestError(f"bad file name {name!r}")
        path = self.spool.output_dir(record.job) / name
        if not path.is_file():
            raise UnknownFileError(f"no output file {name!r} for job {record.job}")
        size = path.stat().st_size
        offset = (seq - 1) * CHUNK_SIZE
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(CHUNK_SIZE)
        eof = offset + len(data) >= size
        return {"seq": seq, "data": base64.b64encode(data).decode("ascii"), "eof": eof}

    def cmd_sandbox_put(self, user: str, args: dict) -> dict:
        record = self._record(args.get("job", ""))
        self._require_owner(record, user)
        name = args.get("name", "")
        seq = int(args.get("seq", 0))
        eof = bool(args.get("eof"))
        if not name or name.startswith("/") or ".." in Path(name).parts:
            raise BadRequestError(f"bad file name {name!r}")
        if name not in validate_description(record.jdl).input_sandbox:
            raise UnknownFileError(f"{name!r} is not in the declared input sandbox")
        try:
            data = base64.b64decode(args.get("data", ""), validate=True)
        except (ValueError, TypeError):
            raise BadRequestError("chunk data must be base64") from None

        key = (record.job, name)
        part = self.spool.input_dir(record.job) / (name + ".part")
        with self._lock:
            expected = self._uploads.get(key, 1)
            if seq == 1:
                part.parent.mkdir(parents=True, exist_ok=True)
                part.write_bytes(b"")
                self._uploads[key] = 1
                expected = 1
            if seq != expected:
                raise ChunkGapError(f"expected chunk {expected}, got {seq}")
            with open(part, "ab") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            self._uploads[key] = seq + 1
            if eof:
                final = self.spool.input_dir(record.job) / name
                final.parent.mkdir(parents=True, exist_ok=True)
                os.replace(part, final)
                fsync_dir(final.parent)
                self._uploads.pop(key, None)
        released = self._maybe_release(record.job) if eof else False
        return {"seq": seq, "eof": eof, "released": released}

    def cmd_resources(self, user: str, args: dict) -> dict:
        out = []
        for entry in self.registry.list_resources():
            out.append({"id": entry.id, "type": entry.type, "ad": entry.ad.unparse()})
        return {"resources": out}

    def cmd_account_balance(self, user: str, args: dict) -> dict:
        account = args.get("account")
        if not isinstance(account, str) or not account:
            raise BadRequestError("account-balance needs an 'account' string")
        return {"account": account, "balance": self.ledger.balance(account)}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        core: GatewayCore = self.server.core  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline()
            except (ConnectionError, OSError):
                return
            if not line:
                return
            line = line.strip()
            if not line:
                continue
            response = self._one(core, line)
            try:
                self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
                self.wfile.flush()
            except (ConnectionError, OSError):
                return

    @staticmethod
    def _one(core: GatewayCore, line: bytes) -> dict:
        req_id = None
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise BadRequestError("request must be a JSON object")
            req_id = request.get("id")
            cmd = request.get("cmd")
            user = request.get("user")
            args = request.get("args") or {}
            if not isinstance(cmd, str) or not isinstance(user, str) or not isinstance(args, dict):
                raise BadRequestError("request needs string 'cmd', string 'user', object 'args'")
            body = core.dispatch(cmd, user, args)
            return {"id": req_id, "status": "ok", "body": body}
        except WmsError as exc:
            body = {"code": exc.code, "message": str(exc)}
            violations = getattr(exc, "violations", None)
            if violations:
                body["violations"] = [
                    v.as_dict() if hasattr(v, "as_dict") else str(v) for v in violations
                ]
            return {"id": req_id, "status": "error", "body": body}
        except (ValueError, UnicodeDecodeError) as exc:
            return {
                "id": req_id,
                "status": "error",
                "body": {"code": "BadRequest", "message": f"unparseable request: {exc}"},
            }
        except Exception as exc:  # keep the daemon alive no matter what
            log.exception("internal error handling request")
            return {
                "id": req_id,
                "status": "error",
                "body": {"code": "Internal", "message": str(exc)},
            }


class GatewayServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, core: GatewayCore, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        super().__init__((host, port), _Handler)
        self.core = core

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wms-gateway", description="network gateway daemon")
    parser.add_argument("--spool", default=os.environ.get("WMS_SPOOL"), required=False)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=int(os.environ.get("WMS_GATEWAY_PORT", DEFAULT_PORT)))
    parser.add_argument("--resources", default=None)
    args = parser.parse_args(argv)
    if not args.spool:
        parser.error("--spool (or WMS_SPOOL) is required")
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    os.environ.setdefault("WMS_SPOOL", args.spool)
    os.environ.setdefault("WMS_COMPONENT", "gateway")
    server = GatewayServer(GatewayCore(SpoolLayout(Path(args.spool)), args.resources), args.host, args.port)
    log.info("gateway listening on %s:%d", *server.address)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
