"""``process_group.run``: a timed-out child takes everything it
started down with it (no Ray needed to show it)."""

import os
import subprocess
import sys
import textwrap
import time

import pytest

import process_group


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie awaiting its reaper counts as
    gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_timeout_kills_the_grandchild(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    script = textwrap.dedent(
        f"""
        import subprocess, time
        p = subprocess.Popen(["sleep", "120"])
        with open({str(pid_file)!r}, "w") as f:
            f.write(str(p.pid))
        time.sleep(120)
        """
    )
    with pytest.raises(subprocess.TimeoutExpired):
        process_group.run([sys.executable, "-c", script], timeout=2)
    grandchild = int(pid_file.read_text())
    deadline = time.time() + 10
    while _alive(grandchild) and time.time() < deadline:
        time.sleep(0.1)
    assert not _alive(grandchild)


def test_completed_child_output():
    r = process_group.run(
        [sys.executable, "-c", "import sys; print('out'); "
         "print('err', file=sys.stderr); sys.exit(3)"],
        timeout=60, env={**os.environ},
    )
    assert (r.returncode, r.stdout, r.stderr) == (3, "out\n", "err\n")
