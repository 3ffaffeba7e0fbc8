import json
import subprocess
import sys
from pathlib import Path

import pytest

import recourse_lab as rl
from conftest import BLAS_THREAD_VARS


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


def fresh_run(env: dict, code: str) -> list[str]:
    """Lines that `code` prints in a fresh interpreter with environment `env`."""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.splitlines()


def modules_after_cli_import(env: dict) -> list[str]:
    return fresh_run(env, "import sys, recourse_lab.cli; print('\\n'.join(sys.modules))")


def test_cli_import_loads_no_scipy(fresh_env):
    assert [m for m in modules_after_cli_import(fresh_env) if m.split(".")[0] == "scipy"] == []


RUN_SWEEP_MODULES = ("recourse_lab.recourse", "recourse_lab.shiftlab")


POOL_PACKAGES = ("concurrent", "multiprocessing")


def modules_after_main(env: dict, tmp_path, argv: list[str], packages, **config) -> list[str]:
    """main(argv)'s exit code, then the modules of `packages` loaded, run in a
    fresh interpreter on a small synthetic config updated by `config`."""
    source = {"scenario": "target_shift", "alpha": 0.0, "n": 300, "seed": 31}
    (tmp_path / "config.json").write_text(json.dumps({
        "d1_source": {"synthetic": source}, "d2_source": {"synthetic": {**source, "seed": 32}},
        "model": {"kind": "logistic_regression", "epochs": 30}, "recourse": {"method": "cfe"},
        "seeds": {"data": 0, "model": 1, "recourse": 2}, **config,
    }))
    argv = argv + ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    code = ("import contextlib, io, sys\nfrom recourse_lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv})\n"
            f"print(code, [m for m in sys.modules if any((m + '.').startswith(p + '.') "
            f"for p in {tuple(packages)})])")
    return fresh_run(env, code)


def test_cli_import_loads_no_process_pool(fresh_env, tmp_path):
    # bounds and --help load no run/sweep module, and a parallel run forks bare
    # children, so neither loading shiftlab nor running it loads a pool module
    assert [m for m in modules_after_cli_import(fresh_env) if m in RUN_SWEEP_MODULES] == []
    loaded = fresh_run(fresh_env, "import sys, recourse_lab.cli, recourse_lab.shiftlab; "
                                  "print('\\n'.join(sys.modules))")
    assert "recourse_lab.shiftlab" in loaded
    assert [m for m in loaded if m.split(".")[0] in POOL_PACKAGES] == []
    assert modules_after_main(fresh_env, tmp_path, ["run", "--jobs", "2"],
                              POOL_PACKAGES) == ["0 []"]


@pytest.mark.parametrize("method", ["causal", "ar"])
def test_grid_search_run_loads_no_numpy_ma(fresh_env, tmp_path, method):
    # the percentile grids drop duplicates without np.unique, which loads numpy.ma
    scm = [{"name": "x0"}, {"name": "x1", "parents": {"0": 0.5}}] if method == "causal" else None
    assert modules_after_main(fresh_env, tmp_path, ["run", "--jobs", "1"], ["numpy.ma"],
                              recourse={"method": method}, scm=scm) == ["0 []"]


def test_bounds_verify_loads_no_run_or_sweep_module(fresh_env):
    code = ("import contextlib, io, sys\nfrom recourse_lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['bounds', '--rho', '0.5', '--delta', '2', '--kind', kind, '--verify'])\n"
            "             for kind in ('continuous', 'ordinal')]\n"
            f"print(codes, [m for m in sys.modules if m in {RUN_SWEEP_MODULES}])")
    assert fresh_run(fresh_env, code) == ["[0, 0] []"]


def test_parallel_sweep_loads_no_process_pool(fresh_env, tmp_path):
    argv = ["sweep", "--scenario", "target_shift", "--alphas", "0,0.4", "--jobs", "2"]
    assert modules_after_main(fresh_env, tmp_path, argv, POOL_PACKAGES) == ["0 []"]


def test_cli_import_freezes_the_start_up_heap(fresh_env):
    # the start-up objects sit in the permanent generation; collection stays on
    code = "import gc, recourse_lab.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)"
    assert fresh_run(fresh_env, code) == ["True True"]


def test_package_import_loads_no_numpy(fresh_env):
    assert fresh_run(fresh_env, "import sys, recourse_lab; print('numpy' in sys.modules)") == ["False"]


def blas_threads_after_cli_import(env: dict) -> list[str]:
    return fresh_run(env, f"import os, recourse_lab.cli; print(*map(os.environ.get, {BLAS_THREAD_VARS}))")


def test_cli_runs_one_blas_thread(fresh_env):
    assert blas_threads_after_cli_import(fresh_env) == ["1 1 1"]


def test_explicit_blas_thread_count_wins(fresh_env):
    assert blas_threads_after_cli_import({**fresh_env, "OPENBLAS_NUM_THREADS": "3"}) == ["3 1 1"]


def test_star_import_binds_every_export(fresh_env):
    code = ("import recourse_lab\nprint(set(recourse_lab.__all__) <= set(dir(recourse_lab)))\n"
            "from recourse_lab import *\n"
            "print(all(globals()[n] is getattr(recourse_lab, n) for n in recourse_lab.__all__))")
    assert fresh_run(fresh_env, code) == ["True", "True"]


def test_unknown_attribute_names_itself(fresh_env):
    code = ("import recourse_lab\ntry:\n    recourse_lab.no_such_name\n"
            "except AttributeError as exc:\n    print(exc)")
    assert fresh_run(fresh_env, code) == ["module 'recourse_lab' has no attribute 'no_such_name'"]
