"""Run a child process whose timeout also stops everything it started.

``subprocess.run(timeout=...)`` kills only the direct child; a child
that started Ray leaves its Ray processes running with parent pid 1.
Here the child leads its own process group (a new session), and a
timeout kills that whole group before re-raising."""

import os
import signal
import subprocess


def run(cmd, timeout, **popen_kwargs):
    """Like ``subprocess.run(cmd, capture_output=True, text=True,
    timeout=timeout, **popen_kwargs)``; on ``TimeoutExpired`` the
    child's process group is SIGKILLed and reaped, then the exception
    propagates."""
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, **popen_kwargs,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
