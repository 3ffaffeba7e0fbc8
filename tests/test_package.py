import os
import subprocess
import sys
from pathlib import Path

import recourse_lab as rl


def test_exports_resolve_once():
    assert len(rl.__all__) == len(set(rl.__all__))
    missing = [name for name in rl.__all__ if not hasattr(rl, name)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    src = str(Path(rl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, recourse_lab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
