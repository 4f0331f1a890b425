"""Run one CLI command in a forked child and time it there.

The parent has already imported ``expandlab.cli``; each command gets a fresh
child so that the program's process-global memos (``lru_cache`` on
``simplify``/``differentiate``, the canonical-form memo) start as cold as in
a separate CLI call.  Only one child runs at a time.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

CHILD_CRASH = 70
# a command still running after this long is killed and counts as failed
COMMAND_TIMEOUT_S = 120


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class CommandResult:
    exit_code: int
    seconds: float  # wall time of cli.main inside the child
    child_cpu_s: float  # user + system time of the child, from wait4
    maxrss_mb: float  # the child's peak resident set, from wait4
    output: bytes  # the --no-timestamp JSON document ('' if none was written)
    trace: dict | None = None


def run_command(cmd: dict, workdir: Path, tracer_factory=None) -> CommandResult:
    """Fork, run ``cli.main(argv + --no-timestamp --out <tmp>)`` in the child
    and wait for it.  ``tracer_factory()`` makes the child's tracer."""
    from expandlab import cli

    stem = workdir / cmd["id"].replace("/", "_")
    out_path, res_path, log_path = (stem.with_suffix(s) for s in (".json", ".res", ".log"))
    for p in (out_path, res_path):
        p.unlink(missing_ok=True)
    argv = [*cmd["argv"], "--no-timestamp", "--out", str(out_path)]
    sys.stdout.flush()
    sys.stderr.flush()
    forked = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = CHILD_CRASH
        try:
            fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            tracer = tracer_factory() if tracer_factory else None
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the real CLI would exit 1 with a traceback
                traceback.print_exc()
                rc = 1
            dt = time.perf_counter() - t0
            record = {"rc": rc, "seconds": dt}
            if tracer:
                tracer.uninstall()
                record["trace"] = tracer.export()
            res_path.write_text(json.dumps(record), encoding="utf-8")
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(COMMAND_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except _Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not res_path.exists():
        # killed (timeout, out of memory) or crashed: a failed command, timed
        # from the parent
        exit_code = code if code else CHILD_CRASH
        return CommandResult(exit_code, time.perf_counter() - forked, cpu, rss_mb, b"")
    record = json.loads(res_path.read_text(encoding="utf-8"))
    output = out_path.read_bytes() if out_path.exists() else b""
    return CommandResult(
        exit_code=int(record["rc"]),
        seconds=float(record["seconds"]),
        child_cpu_s=cpu,
        maxrss_mb=rss_mb,
        output=output,
        trace=record.get("trace"),
    )
