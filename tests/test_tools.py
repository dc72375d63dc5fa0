"""The repository's command-line tools, run as scripts."""

import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "code_lines.py")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_code_lines_help_prints_its_usage(flag):
    proc = subprocess.run([sys.executable, TOOL, flag], capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("Count the code lines") and "[path]" in proc.stdout


def test_code_lines_refuses_a_missing_path(tmp_path):
    missing = tmp_path / "missing"
    proc = subprocess.run([sys.executable, TOOL, str(missing)], capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"code_lines.py: {missing}: no such file or directory\n"
