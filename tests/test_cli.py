"""CLI behavior, stream framing, and the in-job checkpoint helper."""

from __future__ import annotations

import io
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from gridwms import chkpt, cli
from gridwms.framing import FrameDecoder, encode_frame
from gridwms.manager import WorkloadManager
from gridwms.stack import main as stack_main
from gridwms.util import python_child_env

from conftest import wait_state


# -- framing ------------------------------------------------------------------


def test_frame_round_trip():
    decoder = FrameDecoder()
    frames = decoder.feed(encode_frame(1, b"hello") + encode_frame(2, b"") + encode_frame(0, b"x"))
    assert frames == [(1, b"hello"), (2, b""), (0, b"x")]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.binary(max_size=64)), max_size=8),
    st.randoms(use_true_random=False),
)
def test_frames_reassemble_across_arbitrary_splits(frames, rng):
    blob = b"".join(encode_frame(sid, payload) for sid, payload in frames)
    decoder = FrameDecoder()
    out = []
    pos = 0
    while pos < len(blob):
        size = rng.randint(1, max(1, len(blob) - pos))
        out.extend(decoder.feed(blob[pos : pos + size]))
        pos += size
    assert out == frames


# -- exit codes and command mapping -----------------------------------------------


def test_transport_error_exit_code():
    rc = cli.main(["--gateway", "127.0.0.1:1", "status", "some-job"])
    assert rc == cli.EXIT_TRANSPORT


def test_user_error_exit_code(stack):
    rc = cli.main(["--gateway", stack.address, "status", "wms-00000000-000000"])
    assert rc == cli.EXIT_USER


def test_query_requires_a_predicate(stack):
    rc = cli.main(["--gateway", stack.address, "query"])
    assert rc == cli.EXIT_USER


def test_submit_status_output_flow(stack, tmp_path, capsys):
    import hashlib
    import os

    blob = os.urandom(1024 * 1024)  # 1 MiB exercises chunked transfer both ways
    jdl = tmp_path / "job.jdl"
    jdl.write_text(
        '[ Executable = "/bin/sh"; Arguments = "-c \\"cp in.bin out.bin\\"";'
        ' InputSandbox = {"in.bin"}; OutputSandbox = {"out.bin"};'
        ' UserTags = [ production = "xyz" ]; ]'
    )
    (tmp_path / "in.bin").write_bytes(blob)
    rc = cli.main(["--gateway", stack.address, "--user", "alice", "submit", str(jdl)])
    assert rc == cli.EXIT_OK
    job = capsys.readouterr().out.strip()

    from gridwms.client import GatewayClient

    with GatewayClient.from_addr(stack.address, user="alice") as client:
        wait_state(client, job, {"DONE_OK"})

    rc = cli.main(["--gateway", stack.address, "status", job])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "DONE_OK" in out and "exit=0" in out

    rc = cli.main(["--gateway", stack.address, "query", "--tag", "production=xyz",
                   "--state", "Done_OK"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert job in out.split()

    dest = tmp_path / "fetched"
    rc = cli.main(["--gateway", stack.address, "output", job, str(dest)])
    assert rc == cli.EXIT_OK
    capsys.readouterr()
    fetched = (dest / "out.bin").read_bytes()
    assert hashlib.sha256(fetched).hexdigest() == hashlib.sha256(blob).hexdigest()


def test_resubmit_from_state_end_to_end(stack, tmp_path, capsys):
    jdl = tmp_path / "copychk.jdl"
    jdl.write_text(
        '[ Executable = "/bin/sh"; Arguments = "-c \\"cp ${WMS_CHECKPOINT_IN:-/dev/null} chk.txt\\"";'
        ' OutputSandbox = {"chk.txt"}; ]'
    )
    assert cli.main(["--gateway", stack.address, "--user", "alice", "submit", str(jdl)]) == 0
    job = capsys.readouterr().out.strip()
    from gridwms.client import GatewayClient

    with GatewayClient.from_addr(stack.address, user="alice") as client:
        wait_state(client, job, {"DONE_OK"})
        client.call("save-state", job=job, pairs=[["step", "1"]])
        client.call("save-state", job=job, pairs=[["step", "2"], ["sum", "3"]])
    assert cli.main(["--gateway", stack.address, "--user", "alice",
                     "resubmit", job, "--from-state", "2"]) == 0
    capsys.readouterr()
    with GatewayClient.from_addr(stack.address, user="alice") as client:
        deadline = time.monotonic() + 30
        while True:
            status = client.call("status", job=job)
            if status["attempt"] == 2 and status["state"] == "DONE_OK":
                break
            assert time.monotonic() < deadline, status
            time.sleep(0.1)
    out_file = stack.spool.output_dir(job) / "chk.txt"
    assert out_file.read_text() == "step=2\nsum=3\n"  # the requested state, not the latest


def test_cancel_and_status_verbose(stack, tmp_path, capsys):
    jdl = tmp_path / "sleep.jdl"
    jdl.write_text('[ Executable = "/bin/sleep"; Arguments = "30"; ]')
    assert cli.main(["--gateway", stack.address, "--user", "alice", "submit", str(jdl)]) == 0
    job = capsys.readouterr().out.strip()
    from gridwms.client import GatewayClient

    with GatewayClient.from_addr(stack.address, user="alice") as client:
        wait_state(client, job, {"RUNNING"})
    assert cli.main(["--gateway", stack.address, "--user", "alice", "cancel", job]) == 0
    with GatewayClient.from_addr(stack.address, user="alice") as client:
        final = wait_state(client, job, {"CANCELLED"})
    assert final["state"] == "CANCELLED"
    assert cli.main(["--gateway", stack.address, "status", job, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "Cancelled" in out


def test_balance_and_resources_commands(stack, capsys):
    assert cli.main(["--gateway", stack.address, "resources"]) == 0
    out = capsys.readouterr().out
    assert "CE1" in out and "SE1" in out
    assert cli.main(["--gateway", stack.address, "balance", "alice"]) == 0
    assert capsys.readouterr().out.strip() == "10000"


def test_submit_dag_with_node_sandbox(stack, tmp_path, capsys):
    jdl = tmp_path / "flow.jdl"
    jdl.write_text(
        '[ Type = "DAG"; Nodes = [ '
        'Prep = [ Executable = "/bin/sh"; Arguments = "-c \\"cp seed.txt staged.txt\\"";'
        ' InputSandbox = {"seed.txt"}; OutputSandbox = {"staged.txt"}; ]; '
        'Wrap = [ Executable = "/bin/sh"; Arguments = "-c true"; ]; ]; '
        'Dependencies = { {"Prep", "Wrap"} }; ]'
    )
    (tmp_path / "seed.txt").write_text("grown from seed\n")
    rc = cli.main(["--gateway", stack.address, "--user", "alice", "submit-dag", str(jdl)])
    assert rc == cli.EXIT_OK
    dag_job = capsys.readouterr().out.strip()
    from gridwms.client import GatewayClient

    with GatewayClient.from_addr(stack.address, user="alice") as client:
        final = wait_state(client, dag_job, {"DONE_OK", "DONE_FAILED"}, timeout=40)
        assert final["state"] == "DONE_OK"
        prep_job = final["userTags"]["node:prep"]
        files = client.call("output-list", job=prep_job)["files"]
    assert files == ["staged.txt"]
    out = stack.spool.output_dir(prep_job) / "staged.txt"
    assert out.read_text() == "grown from seed\n"


# -- interactive attachment -----------------------------------------------------------


def _free_port() -> int:
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_interactive_stderr_routed_to_stream_two(stack):
    from gridwms.client import GatewayClient

    port = _free_port()
    jdl = (f'[ Executable = "/bin/sh"; Arguments = "-c \\"echo oops 1>&2\\"";'
           f' JobType = "Interactive"; ListenerHost = "127.0.0.1"; ListenerPort = {port}; ]')
    with GatewayClient.from_addr(stack.address, user="alice") as client:
        job = client.call("submit", jdl=jdl)["job"]
    stdout, stderr = io.BytesIO(), io.BytesIO()
    rc = cli.attach_listener("127.0.0.1", port, timeout=25.0,
                             stdin=io.BytesIO(b""), stdout=stdout, stderr=stderr)
    assert rc == cli.EXIT_OK
    assert stderr.getvalue() == b"oops\n"
    assert stdout.getvalue() == b""
    with GatewayClient.from_addr(stack.address, user="alice") as client:
        wait_state(client, job, {"DONE_OK"})


def test_attach_times_out_when_job_never_connects(capsys):
    port = _free_port()
    rc = cli.attach_listener("127.0.0.1", port, timeout=0.5, stdin=io.BytesIO(b""),
                             stdout=io.BytesIO(), stderr=io.BytesIO())
    assert rc == cli.EXIT_USER
    assert "no connection" in capsys.readouterr().err


def test_attach_rejects_non_interactive_job(stack, tmp_path, capsys):
    jdl = tmp_path / "plain.jdl"
    jdl.write_text('[ Executable = "/bin/sleep"; Arguments = "5"; ]')
    assert cli.main(["--gateway", stack.address, "--user", "alice", "submit", str(jdl)]) == 0
    job = capsys.readouterr().out.strip()
    rc = cli.main(["--gateway", stack.address, "attach", job])
    assert rc == cli.EXIT_USER


# -- the checkpoint helper ------------------------------------------------------------


def test_chkpt_save_and_load_via_gateway(stack, monkeypatch, capsys):
    from gridwms.client import GatewayClient

    with GatewayClient.from_addr(stack.address, user="alice") as client:
        job = client.call("submit", jdl='[ Executable = "/bin/sleep"; Arguments = "5"; ]')["job"]
    monkeypatch.setenv("WMS_GATEWAY", stack.address)
    monkeypatch.setenv("WMS_JOB_ID", job)
    monkeypatch.setenv("WMS_USER", "alice")
    monkeypatch.delenv("WMS_CHECKPOINT_IN", raising=False)
    assert chkpt.main(["save", "step=3", "sum=6"]) == 0
    capsys.readouterr()
    assert chkpt.main(["load"]) == 0
    assert capsys.readouterr().out == "step=3\nsum=6\n"


def test_chkpt_load_fresh_job_is_empty_success(stack, monkeypatch, capsys):
    from gridwms.client import GatewayClient

    with GatewayClient.from_addr(stack.address, user="alice") as client:
        job = client.call("submit", jdl='[ Executable = "/bin/sleep"; Arguments = "5"; ]')["job"]
    monkeypatch.setenv("WMS_GATEWAY", stack.address)
    monkeypatch.setenv("WMS_JOB_ID", job)
    monkeypatch.delenv("WMS_CHECKPOINT_IN", raising=False)
    assert chkpt.main(["load"]) == 0
    assert capsys.readouterr().out == ""


def test_chkpt_load_prefers_restore_file(tmp_path, monkeypatch, capsys):
    restore = tmp_path / "restore"
    restore.write_text("step=9\n")
    monkeypatch.setenv("WMS_CHECKPOINT_IN", str(restore))
    monkeypatch.setenv("WMS_JOB_ID", "whatever")
    assert chkpt.main(["load"]) == 0
    assert capsys.readouterr().out == "step=9\n"


def test_chkpt_bad_usage(capsys):
    assert chkpt.main([]) == 1
    assert chkpt.main(["save", "notapair"]) == 1
    capsys.readouterr()


def test_chkpt_unreachable_gateway(monkeypatch, capsys):
    monkeypatch.setenv("WMS_GATEWAY", "127.0.0.1:1")
    monkeypatch.setenv("WMS_JOB_ID", "j")
    assert chkpt.main(["save", "a=b"]) == 1
    capsys.readouterr()


def test_console_entry_points_run():
    env = python_child_env()
    out = subprocess.run([sys.executable, "-m", "gridwms.cli", "--help"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "submit" in out.stdout
    out = subprocess.run([sys.executable, "-m", "gridwms.chkpt"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 1


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_stack_exits_nonzero_when_a_component_thread_dies(spool, monkeypatch):
    def broken_tick(self):
        raise RuntimeError("manager tick failed")

    monkeypatch.setattr(WorkloadManager, "tick", broken_tick)
    codes = []
    runner = threading.Thread(
        target=lambda: codes.append(stack_main(["--spool", str(spool.root), "--port", "0"])), daemon=True
    )
    runner.start()
    runner.join(timeout=10)
    assert codes == [1]
