"""Write the reference tables the benchmark checks outputs against.

Usage, from the root of a checkout:  python3 bench/make_reference.py

ref/fig3.csv         ``linksec figure --id 3`` (analytic) at this commit.
ref/surface_irs.csv  analytic irs_secrecy of the mc-surface-wide sweep
                     (N = 64..256), the centre of its 5 s.e. check.

Regenerate only when a change is meant to move the analytic values.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import SCENARIO, SURFACE_SWEEP

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CLI_CODE = "import sys; from linksec.cli import main; sys.exit(main())"


def cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", CLI_CODE, *args], env=env, check=True)


def main() -> None:
    out = BENCH / "ref"
    out.mkdir(exist_ok=True)
    cli("figure", "--id", "3", "--out", str(out / "fig3.csv"))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cfg = Path(tmp) / "surface.cfg"
        cfg.write_text(SCENARIO + SURFACE_SWEEP.format(master_seed=0), encoding="utf-8")
        cli("sweep", "--config", str(cfg), "--out", str(out / "surface_irs.csv"),
            "--method", "analytic")


if __name__ == "__main__":
    main()
