"""Shared harness for the ``repro serve`` test layer.

Boots the real server — ``python -m repro serve --port 0`` in a fresh
subprocess, exactly as the docs advertise — and hands tests a
:class:`repro.serve.client.ServerClient` bound to the ephemeral port parsed
from the boot line.  Used by ``test_serve_api.py`` (integration),
``test_serve_load.py`` (coalescing / saturation / crash), and
``test_serve_fuzz.py`` (protocol fuzzing).  :func:`pid_gone` and
:func:`child_pids` read ``/proc`` to check that no worker process outlives
its cell or its server.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_BOOT_LINE = re.compile(r"listening on http://([\d.]+):(\d+)")


def pid_gone(pid: int) -> bool:
    """True when *pid* has exited (absent, or a zombie nobody reaped yet)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        return True


def child_pids(pid: int) -> list:
    """The pids whose parent is *pid*, zombies included."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text(encoding="ascii").rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == pid:
            children.append(int(entry.name))
    return sorted(children)


def wait_until_gone(pids, timeout: float = 10.0) -> bool:
    """Poll until every pid in *pids* has exited; False on timeout."""
    deadline = time.monotonic() + timeout
    while not all(pid_gone(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port.

    Use as a context manager::

        with ServerProcess("--workers", "2") as server:
            server.client.health()
    """

    def __init__(self, *args: str, boot_timeout: float = 30.0):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            self.url = self._await_boot(boot_timeout)
        except Exception:
            self.stop()
            raise
        from repro.serve import ServerClient

        self.client = ServerClient(self.url, timeout=120.0)

    def _await_boot(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "server exited during boot:\n"
                    + (self.proc.stderr.read() if self.proc.stderr else ""))
            line = self.proc.stdout.readline()
            if not line:
                continue
            match = _BOOT_LINE.search(line)
            if match:
                return f"http://{match.group(1)}:{match.group(2)}"
        raise TimeoutError("server did not print its boot line in time")

    def stop(self, timeout: float = 15.0) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
