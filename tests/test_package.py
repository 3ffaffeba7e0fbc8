import os
import subprocess
import sys
from pathlib import Path

import recourse_lab as rl


def test_exports_resolve_once():
    assert len(rl.__all__) == len(set(rl.__all__))
    missing = [name for name in rl.__all__ if not hasattr(rl, name)]
    assert missing == []


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == code.count("print(")


def modules_after_cli_import() -> list[str]:
    """Names in sys.modules of a fresh interpreter that has imported recourse_lab.cli."""
    src = str(Path(rl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, recourse_lab.cli; print('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.split()


def test_cli_import_loads_no_scipy():
    assert [m for m in modules_after_cli_import() if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_process_pool():
    # only a parallel run or sweep forks; bounds and --help never pay for the pool modules
    loaded = modules_after_cli_import()
    assert "recourse_lab.shiftlab" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")] == []
