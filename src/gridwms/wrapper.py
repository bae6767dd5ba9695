"""The job wrapper: creates the execution environment on the worker.

The executor does not start an interpreter per job.  It starts one wrapper
zygote, `python -S -c "from gridwms.wrapper import serve; ..."`, on its
first job, and asks it to fork each wrapper (the pattern of Android's
Zygote and of `multiprocessing`'s forkserver).  The zygote has imported
this module, `json`, `signal` and `shutil` once, so the wrapper of a plain
job starts with nothing left to import or compile.  `-S` skips `site` and its `.pth` hooks
(`python_child_env` puts the package on PYTHONPATH, which `-S` honours).

The zygote's protocol is one line each way, on its stdin and stdout:

    {"dir": <run dir>, "plan": <plan.json>, "env": {..}}   one request per job
    pid <pid>                  the reply, after the fork and the pid file
    error <message>            the reply when the fork or the request failed
    exit <pid> <wait status>   when the zygote has reaped that wrapper

Before it replies, the zygote puts the forked child in a process group of
its own, so killing that group ends the wrapper and its job, and writes
the child's pid to `wrapper.pid` in the run directory by temp file and
rename: a restart that follows the reply at once finds both.  The child
makes the same group itself first thing (whichever `setpgid` runs first
makes it), changes into the run directory, puts /dev/null on its
standard streams, closes every other descriptor, adds the request's
variables (the job's own) to the environment the zygote was started
with, runs `run(plan)` and `os._exit`s with its return code.  The zygote
learns of each exit from SIGCHLD through a wakeup pipe, not by polling,
and exits at the end of its stdin.

`python -m gridwms.wrapper plan.json`, or `python -S -c` with
`gridwms.executor.WRAPPER_MAIN`, runs one wrapper as a process of its own
in the working directory.  The module level imports only `json`, `os`,
`sys` and `time`.  The interactive path imports `socket`, `subprocess`,
`threading` and `.framing` when a job needs them.

plan.json is `WrapperPlan.as_dict()`, read as a plain dict.  The wrapper
imports the input sandbox, materializes the checkpoint restore file,
exports the job environment, runs the user executable (a plain job by
`os.posix_spawn` in the wrapper's process group, an interactive one with
its standard streams bridged over a socket), collects the output sandbox,
and reports the outcome in wrapper.result:

    {"exit": <code>, "cpu_seconds": <float>}   normal completion
    {"error": "...", ...}                      setup failure or signal death

Exit code 125 is reserved for setup failures so the executor can tell
them apart from user exit codes (which it reads from wrapper.result).
"""

import json
import os
import sys
import time

SETUP_FAILED = 125
CHECKPOINT_FILE = "wms_checkpoint_in"
CONNECT_RETRY_SECONDS = 0.25
CONNECT_TIMEOUT = 30.0


def _fail(scratch: str, message: str) -> int:
    _write_result(scratch, {"error": message})
    sys.stderr.write(f"wrapper: {message}\n")
    return SETUP_FAILED


def _write_result(scratch: str, obj: dict) -> None:
    tmp = os.path.join(scratch, ".wrapper.result.tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True))
    os.replace(tmp, os.path.join(scratch, "wrapper.result"))


def _escapes(name: str) -> bool:
    return os.path.isabs(name) or ".." in name.split("/")


def _copy(source: str, dest: str) -> None:
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    with open(source, "rb") as fin, open(dest, "wb") as fout:
        while chunk := fin.read(1 << 20):
            fout.write(chunk)


def _import_sandbox(plan: dict, scratch: str) -> str | None:
    for item in plan.get("inputs") or []:
        name, source = item.get("name"), item.get("source")
        if not name or not source:
            return f"bad input manifest entry: {item!r}"
        if _escapes(name):
            return f"input name escapes scratch: {name}"
        try:
            _copy(source, os.path.join(scratch, name))
        except OSError as exc:
            return f"input sandbox copy failed for {name}: {exc}"
    return None


def _export_sandbox(plan: dict, scratch: str) -> str | None:
    if not plan.get("outputs"):
        return None
    out_dir = plan.get("output_dir") or ""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in plan["outputs"]:
            if _escapes(name):
                return f"output name escapes scratch: {name}"
            src = os.path.join(scratch, name)
            if os.path.exists(src):  # a job may legitimately not produce every file
                _copy(src, os.path.join(out_dir, name))
    except OSError as exc:
        return f"output sandbox copy failed: {exc}"
    return None


def _resolve_command(plan: dict, scratch: str) -> list[str] | str:
    argv = list(plan["command"])
    exe = argv[0]
    if "/" in exe:
        exe = os.path.join(scratch, exe)  # an absolute exe stays as it is
    else:
        local = os.path.join(scratch, exe)
        if os.path.exists(local):
            os.chmod(local, os.stat(local).st_mode | 0o755)
            exe = local
        else:
            import shutil

            found = shutil.which(exe)
            if found is None:
                return f"executable not found: {exe}"
            exe = found
    if not os.path.exists(exe):
        return f"executable not found: {exe}"
    argv[0] = exe
    return argv


def _run_plain(argv: list[str], env: dict, plan: dict, scratch: str) -> int | str:
    """Spawn the job in this process group and wait: its exit status, or minus its signal."""
    import signal  # to reset SIGPIPE and SIGXFSZ for the job, as Popen does

    stdin = os.path.join(scratch, plan["stdin"]) if plan.get("stdin") else os.devnull
    try:
        stdio = [os.open(stdin, os.O_RDONLY)]
    except OSError as exc:
        return f"stdin unavailable: {exc}"
    try:
        for name in (plan.get("stdout") or "stdout.log", plan.get("stderr") or "stderr.log"):
            stdio.append(os.open(os.path.join(scratch, name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
        actions = [(os.POSIX_SPAWN_DUP2, fd, target) for target, fd in enumerate(stdio)]
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setsigdef=(signal.SIGPIPE, signal.SIGXFSZ))
    except OSError as exc:
        return f"exec failed: {exc}"
    finally:
        for fd in stdio:
            os.close(fd)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _run_interactive(argv: list[str], env: dict, host: str, port: int) -> int | str:
    """Run the job with its standard streams bridged to the listener."""
    import socket
    import subprocess
    import threading

    from .framing import STDERR, STDIN, STDOUT, FrameDecoder, encode_frame

    deadline = time.monotonic() + CONNECT_TIMEOUT
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            break
        except OSError:
            if time.monotonic() >= deadline:
                return f"interactive listener {host}:{port} unreachable"
            time.sleep(CONNECT_RETRY_SECONDS)

    proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    send_lock = threading.Lock()

    def ship(stream_id: int, fh) -> None:
        while True:  # the last frame, empty, is the end of the stream
            chunk = fh.read1(65536)
            with send_lock:
                try:
                    sock.sendall(encode_frame(stream_id, chunk))
                except OSError:
                    return
            if not chunk:
                return

    def receive() -> None:
        decoder = FrameDecoder()
        try:
            while data := sock.recv(65536):
                for stream_id, payload in decoder.feed(data):
                    if stream_id != STDIN:
                        continue
                    if not payload:
                        proc.stdin.close()
                        return
                    proc.stdin.write(payload)
                    proc.stdin.flush()
        except (OSError, ValueError):
            return

    threads = [threading.Thread(target=ship, args=out, daemon=True) for out in ((STDOUT, proc.stdout), (STDERR, proc.stderr))]
    threads.append(threading.Thread(target=receive, daemon=True))
    for t in threads:
        t.start()
    rc = proc.wait()
    for t in threads[:2]:
        t.join(timeout=5.0)
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    sock.close()
    return rc


def run(plan_path: str) -> int:
    scratch = os.getcwd()
    try:
        with open(plan_path, "rb") as fh:
            plan = json.load(fh)
        plan["command"] = [str(c) for c in plan["command"]]
        plan["env"] = {str(k): str(v) for k, v in dict(plan.get("env") or {}).items()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(scratch, f"unreadable plan: {exc}")

    error = _import_sandbox(plan, scratch)
    if error:
        return _fail(scratch, error)

    env = dict(os.environ)
    env.update(plan["env"])
    if plan.get("checkpoint_pairs") is not None:
        restore = os.path.join(scratch, CHECKPOINT_FILE)
        with open(restore, "w") as fh:
            fh.write("".join(f"{k}={v}\n" for k, v in plan["checkpoint_pairs"]))
        env["WMS_CHECKPOINT_IN"] = restore

    argv = _resolve_command(plan, scratch)
    if isinstance(argv, str):
        return _fail(scratch, argv)

    started = time.monotonic()
    listener = plan.get("listener")
    rc = _run_interactive(argv, env, listener[0], int(listener[1])) if listener else _run_plain(argv, env, plan, scratch)
    if isinstance(rc, str):
        return _fail(scratch, rc)

    wall = time.monotonic() - started
    cpu_seconds = float(env.get("WMS_FAKE_CPU_SECONDS", wall))

    if rc < 0:
        _write_result(scratch, {"error": f"user executable killed by signal {-rc}", "signal": -rc})
        return SETUP_FAILED

    error = _export_sandbox(plan, scratch)
    if error:
        return _fail(scratch, error)

    _write_result(scratch, {"exit": rc, "cpu_seconds": cpu_seconds})
    return rc if 0 <= rc < 125 else 124


def _drop_cwd_from_path() -> None:
    # the job's files land in the working directory: none of them may stand
    # in for a module imported later (an input named signal.py, say)
    if sys.path and sys.path[0] in ("", os.getcwd()):
        del sys.path[0]


def main() -> int:
    _drop_cwd_from_path()
    if len(sys.argv) != 2:
        sys.stderr.write("usage: python -m gridwms.wrapper <plan.json>\n")
        return 2
    return run(sys.argv[1])


def _reply(line: str) -> None:
    os.write(1, (line + "\n").encode())


def _wrapper_child(run_dir: str, plan_path: str, env: dict) -> int:
    """In the forked child: become the wrapper of one job (see the module docstring)."""
    import signal

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    os.setpgid(0, 0)  # as the zygote does: whichever call runs first makes the group
    os.chdir(run_dir)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))
    os.environ.update(env)
    return run(plan_path)


def _fork_wrapper(line: bytes) -> None:
    try:
        request = json.loads(line)
        run_dir, plan_path = str(request["dir"]), str(request["plan"])
        env = {str(k): str(v) for k, v in dict(request["env"]).items()}
        pid = os.fork()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _reply("error " + " ".join(str(exc).split()))
        return
    if pid == 0:
        code = SETUP_FAILED
        try:
            code = _wrapper_child(run_dir, plan_path, env)
        finally:
            os._exit(code)  # never back into the zygote's loop
    try:
        os.setpgid(pid, pid)
    except (ProcessLookupError, PermissionError):
        pass  # the child's own call made the group, or it has exited
    try:
        # renamed into place, so a restart never reads a torn pid; no fsync,
        # as a crash of the machine ends the wrapper too
        tmp = os.path.join(run_dir, ".wrapper.pid.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            os.write(fd, str(pid).encode())
        finally:
            os.close(fd)
        os.replace(tmp, os.path.join(run_dir, "wrapper.pid"))
    except OSError as exc:
        import signal

        try:
            os.killpg(pid, signal.SIGKILL)  # a wrapper that a restart could not find does not run
        except ProcessLookupError:
            pass  # it has exited
        _reply("error " + " ".join(f"wrapper.pid not written: {exc}".split()))
        return
    _reply(f"pid {pid}")


def serve() -> int:
    """The wrapper zygote: fork one wrapper per request line on stdin
    until stdin ends (see the module docstring for the protocol)."""
    import select
    import shutil  # noqa: F401  a bare command name needs it: imported once, here
    import signal

    _drop_cwd_from_path()
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda *_: None)  # a handler, so SIGCHLD writes to wake_w
    rest = b""
    while True:
        ready = select.select([0, wake_r], [], [])[0]
        if wake_r in ready:
            while True:
                try:
                    if not os.read(wake_r, 4096):
                        break
                except BlockingIOError:
                    break
            while True:
                try:
                    pid, status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid == 0:
                    break
                _reply(f"exit {pid} {status}")
        if 0 in ready:
            data = os.read(0, 1 << 16)
            if not data:
                return 0
            *lines, rest = (rest + data).split(b"\n")
            for line in lines:
                if line.strip():
                    _fork_wrapper(line)


if __name__ == "__main__":
    raise SystemExit(main())
