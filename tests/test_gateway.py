"""Gateway wire protocol, validation gate, and sandbox staging."""

from __future__ import annotations

import base64
import hashlib
import json
import os
import socket
import threading

import pytest

from gridwms import gateway
from gridwms.accounting import Ledger
from gridwms.bookkeeping import BookkeepingStore
from gridwms.client import GatewayClient, GatewayError
from gridwms.filequeue import FileQueue
from gridwms.gateway import GatewayCore, GatewayServer
from gridwms.layout import SpoolLayout

from conftest import write_resource


@pytest.fixture
def gw(tmp_path):
    """Gateway alone: no manager or executor behind it."""
    layout = SpoolLayout(tmp_path / "spool").ensure()
    write_resource(layout.root / "resources", "CE1", Status="Production", FreeCPUs=1,
                   TotalCPUs=1, OwnerGroup="g", PricePerCpuSecond=1)
    server = GatewayServer(GatewayCore(layout), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield layout, server
    server.shutdown()
    server.server_close()


def connect(server, user="alice") -> GatewayClient:
    host, port = server.address
    return GatewayClient(host, port, user=user)


def raw_roundtrip(server, payload: bytes) -> list[dict]:
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return [json.loads(line) for line in data.decode().splitlines() if line.strip()]


JDL = '[ Executable = "/bin/true"; ]'


def test_submit_registers_and_enqueues(gw):
    layout, server = gw
    with connect(server) as client:
        body = client.call("submit", jdl=JDL)
    job = body["job"]
    assert job.startswith("wms-")
    store = BookkeepingStore(layout.lb_root)
    record = store.job_record(job)
    assert record.state.value == "WAITING"
    assert record.owner == "alice"
    queued = [json.loads(p) for _s, _st, p in FileQueue(layout.wm_requests).iter_items()]
    assert [q["job"] for q in queued] == [job]


def test_invalid_jdl_leaves_no_trace(gw):
    layout, server = gw
    with connect(server) as client:
        with pytest.raises(GatewayError) as err:
            client.call("submit", jdl='[ InputSandbox = {"../x"}; ]')
    assert err.value.code == "ValidationFailed"
    assert err.value.body.get("violations")
    assert BookkeepingStore(layout.lb_root).list_jobs() == []
    assert FileQueue(layout.wm_requests).pending_count() == 0


def test_validation_gate_queue_audit(gw):
    """Nothing invalid ever reaches the manager queue."""
    layout, server = gw
    bad = ['[ InputSandbox = {"../x"}; ]', "[ not jdl", '[ Executable = ""; ]']
    good = [JDL, '[ Executable = "/bin/echo"; Arguments = "hi"; ]']
    with connect(server) as client:
        for jdl in bad:
            with pytest.raises(GatewayError):
                client.call("submit", jdl=jdl)
        for jdl in good:
            client.call("submit", jdl=jdl)
    from gridwms.jdl import validate_job
    queued = [json.loads(p) for _s, _st, p in FileQueue(layout.wm_requests).iter_items()]
    assert len(queued) == len(good)
    for item in queued:
        validate_job(item["jdl"])  # must not raise


def test_job_with_custom_nodes_attribute_routes_as_plain_submit(gw):
    layout, server = gw
    with connect(server) as client:
        job = client.call("submit", jdl='[ Executable = "/bin/true"; Nodes = 3; ]')["job"]
    queued = [json.loads(p) for _s, _st, p in FileQueue(layout.wm_requests).iter_items()]
    assert [q["kind"] for q in queued if q["job"] == job] == ["submit"]


def test_status_unknown_job(gw):
    _, server = gw
    with connect(server) as client:
        with pytest.raises(GatewayError) as err:
            client.call("status", job="wms-00000000-000000")
    assert err.value.code == "UnknownJob"


def test_unknown_cmd_gets_error_response(gw):
    _, server = gw
    responses = raw_roundtrip(server, b'{"id": "a1", "cmd": "frobnicate", "user": "u", "args": {}}\n')
    assert responses == [{"id": "a1", "status": "error",
                          "body": {"code": "BadRequest", "message": responses[0]["body"]["message"]}}]


def test_protocol_totality_one_response_per_line(gw):
    _, server = gw
    lines = (
        b'{"id": "1", "cmd": "resources", "user": "u", "args": {}}\n'
        b"this is not json\n"
        b'{"id": 17, "cmd": "status", "user": "u", "args": {}}\n'
        b'{"id": "2", "cmd": "account-balance", "user": "u", "args": {}}\n'
    )
    responses = raw_roundtrip(server, lines)
    assert len(responses) == 4
    assert [r["id"] for r in responses] == ["1", None, 17, "2"]
    assert responses[0]["status"] == "ok"
    assert all(r["status"] == "error" for r in responses[1:])


def test_owner_checks(gw):
    _, server = gw
    with connect(server, user="alice") as client:
        job = client.call("submit", jdl=JDL)["job"]
    with connect(server, user="mallory") as other:
        with pytest.raises(GatewayError) as err:
            other.call("cancel", job=job)
        assert err.value.code == "Unauthorized"
        with pytest.raises(GatewayError) as err:
            other.call("save-state", job=job, pairs=[["a", "b"]])
        assert err.value.code == "Unauthorized"


def test_save_and_get_state_via_wire(gw):
    _, server = gw
    with connect(server) as client:
        job = client.call("submit", jdl=JDL)["job"]
        assert client.call("save-state", job=job, pairs=[["step", "3"]])["seq"] == 1
        assert client.call("save-state", job=job, pairs=[["step", "4"]])["seq"] == 2
        assert client.call("get-state", job=job)["pairs"] == [["step", "4"]]
        assert client.call("get-state", job=job, seq=1)["pairs"] == [["step", "3"]]
        with pytest.raises(GatewayError) as err:
            client.call("get-state", job=job, seq=9)
        assert err.value.code == "NoSuchState"


def test_resources_and_balance(gw):
    layout, server = gw
    (layout.root / "accounts.ad").write_text(
        '[ Accounts = { [ Id = "alice"; Kind = "User"; Balance = 77; ] }; ]'
    )
    server.core.ledger = Ledger(layout.ledger_file, layout.accounts_file)
    with connect(server) as client:
        resources = client.call("resources")["resources"]
        assert [r["id"] for r in resources] == ["CE1"]
        assert client.call("account-balance", account="alice")["balance"] == 77
        with pytest.raises(GatewayError) as err:
            client.call("account-balance", account="nobody")
        assert err.value.code == "UnknownAccount"


# -- sandbox staging ------------------------------------------------------------------


def test_sandbox_upload_holds_until_complete_then_releases(gw, tmp_path):
    layout, server = gw
    blob = os.urandom(1024 * 1024)  # 1 MiB forces multiple chunks
    src = tmp_path / "data.bin"
    src.write_bytes(blob)
    jdl = '[ Executable = "prog"; InputSandbox = {"prog", "data.bin"}; ]'
    with connect(server) as client:
        body = client.call("submit", jdl=jdl)
        job = body["job"]
        assert body["held_for_sandbox"] is True
        assert FileQueue(layout.wm_requests).pending_count() == 0  # held
        client.upload_file(job, "prog", src)  # any bytes will do
        assert FileQueue(layout.wm_requests).pending_count() == 0  # still one missing
        client.upload_file(job, "data.bin", src)
        assert FileQueue(layout.wm_requests).pending_count() == 1  # released
    stored = layout.input_dir(job) / "data.bin"
    assert hashlib.sha256(stored.read_bytes()).hexdigest() == hashlib.sha256(blob).hexdigest()


def test_sandbox_chunk_gap_rejected(gw):
    layout, server = gw
    jdl = '[ Executable = "prog"; InputSandbox = {"prog"}; ]'
    with connect(server) as client:
        job = client.call("submit", jdl=jdl)["job"]
        data = base64.b64encode(b"x").decode()
        client.call("sandbox-put", job=job, name="prog", seq=1, data=data, eof=False)
        with pytest.raises(GatewayError) as err:
            client.call("sandbox-put", job=job, name="prog", seq=3, data=data, eof=True)
        assert err.value.code == "ChunkGap"
        # restarting from seq 1 resets the assembly
        client.call("sandbox-put", job=job, name="prog", seq=1, data=data, eof=True)
        assert (layout.input_dir(job) / "prog").read_bytes() == b"x"


def test_sandbox_put_undeclared_name_rejected(gw):
    _, server = gw
    with connect(server) as client:
        job = client.call("submit", jdl=JDL)["job"]
        with pytest.raises(GatewayError) as err:
            client.call("sandbox-put", job=job, name="sneaky.bin", seq=1,
                        data=base64.b64encode(b"x").decode(), eof=True)
        assert err.value.code == "UnknownFile"


def test_output_get_undeclared_name(gw):
    _, server = gw
    with connect(server) as client:
        job = client.call("submit", jdl=JDL)["job"]
        with pytest.raises(GatewayError) as err:
            client.call("output-get", job=job, name="nope.txt", seq=1)
        assert err.value.code == "UnknownFile"


def test_output_round_trip_chunked(gw, tmp_path):
    layout, server = gw
    blob = os.urandom(200_000)
    with connect(server) as client:
        job = client.call("submit", jdl=JDL)["job"]
        out_dir = layout.output_dir(job)
        out_dir.mkdir(parents=True)
        (out_dir / "result.bin").write_bytes(blob)
        assert client.call("output-list", job=job)["files"] == ["result.bin"]
        dest = tmp_path / "fetched.bin"
        client.download_file(job, "result.bin", dest)
    assert dest.read_bytes() == blob


def test_concurrent_submitters_distinct_ids(gw):
    _, server = gw
    ids: list[str] = []
    lock = threading.Lock()
    errors: list[Exception] = []

    def submitter(n: int):
        try:
            with connect(server, user=f"user{n}") as client:
                for _ in range(5):
                    job = client.call("submit", jdl=JDL)["job"]
                    with lock:
                        ids.append(job)
        except Exception as exc:  # surface in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=submitter, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(ids) == 30
    assert len(set(ids)) == 30


def test_colliding_job_id_is_drawn_again(gw, monkeypatch):
    layout, server = gw
    ids = iter(["wms-20260101-aaaaaa", "wms-20260101-aaaaaa", "wms-20260101-bbbbbb"])
    monkeypatch.setattr(gateway, "new_job_id", lambda: next(ids))
    core = server.core
    first = core.dispatch("submit", "alice", {"jdl": JDL})["job"]
    second = core.dispatch("submit", "bob", {"jdl": '[ Executable = "/bin/echo"; ]'})["job"]
    assert (first, second) == ("wms-20260101-aaaaaa", "wms-20260101-bbbbbb")
    store = BookkeepingStore(layout.lb_root)
    assert store.job_record(first).owner == "alice"
    assert store.job_record(second).owner == "bob"
    assert "/bin/echo" in store.job_record(second).jdl
    queued = [json.loads(p)["job"] for _s, _st, p in FileQueue(layout.wm_requests).iter_items()]
    assert queued == [first, second]
