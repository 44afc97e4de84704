"""The benchmark's own correctness checks still reject corrupted outputs of the
library, so a library change cannot silently break them."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selftest_rejects_every_corruption(tmp_path):
    # selftest.py changes into the checkout that holds it and writes its CLI
    # output under .perfbench_out/ there, so it runs from a copy
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".perfbench_out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "every check rejects its corrupted output"
    assert (tmp_path / ".perfbench_out").is_dir()
