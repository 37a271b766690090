import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import linksec

MODULES = sorted(f"linksec.{m.name}" for m in pkgutil.iter_modules(linksec.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI with every scipy import made to raise ImportError.
NO_SCIPY_CLI = """
import sys
sys.modules["scipy"] = None
from linksec.cli import main
from linksec.config import REFERENCE_CONFIG

small = (REFERENCE_CONFIG.replace("sweep.to = 50.0", "sweep.to = 10.0")
         .replace("sweep.step = 2.0", "sweep.step = 10.0")
         .replace("mc.samples = 200000", "mc.samples = 20000"))
with open("small.cfg", "w", encoding="utf-8") as fh:
    fh.write(small)
with open("reference.cfg", "w", encoding="utf-8") as fh:
    fh.write(REFERENCE_CONFIG)
runs = [
    ["figure", "--id", "3", "--out", "fig3.csv"],
    ["validate", "--config", "reference.cfg", "--samples", "20000", "--seed", "1",
     "--powers", "0,20"],
    ["sweep", "--config", "small.cfg", "--out", "mc.csv", "--method", "mc"],
]
codes = [main(argv) for argv in runs]
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None]
print(codes, loaded)
sys.exit(0 if codes == [0, 0, 0] and not loaded else 1)
"""


def _run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_import_leaves_scipy_unloaded(tmp_path):
    code = (
        "import sys, linksec, linksec.cli\n"
        "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_scipy(tmp_path):
    proc = _run_python(NO_SCIPY_CLI, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "fig3.csv").read_text().count("\n") == 79
    assert (tmp_path / "mc.csv").read_text().count("\n") == 7
