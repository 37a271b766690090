"""The three benchmark workloads: generated inputs, CLI arguments, output checks.

Every workload runs one sequential ``linksec`` CLI command on the reference
scenario (all shapes 2, 13/10/20 m, N=4).  A workload knows how to write
its inputs for one invocation seed, how to read the rows the CLI produced,
and how many of the expected rows are missing, not ``ok`` or wrong.  The
checks only read files and text the CLI already wrote, so they run outside
the timed region.
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"

# The reference scenario, written out by the benchmark so the program only
# sees generated inputs.  Same values as the built-in reference scenario.
SCENARIO = """\
geometry.d_source_node = 13.0
geometry.d_node_legit = 10.0
geometry.d_node_eve = 20.0
geometry.pathloss_exponent = 2.0
fading.source_node.alpha = 2
fading.source_node.beta = 1.0
fading.node_legit.alpha = 2
fading.node_legit.beta = 1.0
fading.node_eve.alpha = 2
fading.node_eve.beta = 1.0
power.tx_dbm = 20.0
noise.relay = 0.01
noise.legit = 0.01
noise.eve = 0.01
irs.n_elements = 4
"""

SURFACE_SWEEP = """\
sweep.variable = n_elements
sweep.from = 64
sweep.to = 256
sweep.step = 64
sweep.architectures = irs
sweep.methods = monte-carlo
mc.samples = 100000
mc.master_seed = {master_seed}
mc.chunk_size = 65536
"""

VALIDATE_POWERS = "0,10,20,30,40,50"
VALIDATE_MAX_Z = 5.0
SURFACE_MAX_Z = 5.0
FIG3_RTOL = 1e-7
FIG3_ATOL = 1e-9


def derive_seed(seed: int, *labels: object) -> int:
    """A 63-bit seed derived from the workload seed and labels.

    ``random.Random`` seeds from a string through SHA-512, so the value is
    the same on every platform and Python version.
    """
    key = ":".join(str(x) for x in (seed, *labels))
    return random.Random(key).getrandbits(63)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Fig3Analytic:
    """``linksec figure --id 3``: 26 powers x irs/df/affg, analytic only."""

    name = "fig3-analytic"
    fields = ("secrecy_bps_hz", "ergodic_L", "ergodic_E", "std_error")

    def __init__(self):
        self.reference = {self._key(r): r for r in _read_csv(REF_DIR / "fig3.csv")}
        self.rows = len(self.reference)

    @staticmethod
    def _key(row):
        return (float(row["value"]), row["architecture"], row["method"])

    def setup_code(self, tmp: Path) -> str:
        return "import linksec.cli as cli; cli.reference_config()"

    def prepare(self, tmp: Path, seed: int) -> list[str]:
        # Figure 3 has no random input: the seed changes nothing here.
        return ["figure", "--id", "3", "--out", str(tmp / "fig3.csv")]

    def read(self, tmp: Path, stdout: str) -> dict:
        return {self._key(r): r for r in _read_csv(tmp / "fig3.csv")}

    def failures(self, records: dict) -> int:
        bad = 0
        for key, ref in self.reference.items():
            row = records.get(key)
            if row is None or row["status"] != "ok" or not all(
                math.isclose(float(row[f]), float(ref[f]), rel_tol=FIG3_RTOL, abs_tol=FIG3_ATOL)
                for f in self.fields
            ):
                bad += 1
        return bad

    def corrupt(self, records: dict) -> dict:
        out = dict(records)
        key = next(iter(out))
        row = dict(out[key])
        row["secrecy_bps_hz"] = repr(float(row["secrecy_bps_hz"]) * (1.0 + 1e-5) + 1e-8)
        out[key] = row
        return out


class Validate1e6:
    """``linksec validate`` at 10^6 samples on six powers: 36 rows."""

    name = "validate-1e6"
    expected = frozenset(
        (arch, float(power), receiver)
        for power in VALIDATE_POWERS.split(",")
        for arch in ("irs", "df", "affg")
        for receiver in ("legit", "eve")
    )
    rows = len(expected)

    def setup_code(self, tmp: Path) -> str:
        return f"import linksec.cli as cli; cli.parse_config({str(tmp / 'validate.cfg')!r})"

    def prepare(self, tmp: Path, seed: int) -> list[str]:
        cfg = tmp / "validate.cfg"
        cfg.write_text(SCENARIO, encoding="utf-8")
        return [
            "validate", "--config", str(cfg), "--samples", "1000000",
            "--seed", str(seed), "--powers", VALIDATE_POWERS,
        ]

    def read(self, tmp: Path, stdout: str) -> dict:
        lines = stdout.splitlines()
        if "overall: PASS" not in lines:
            return {}
        records = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 8 and parts[0] in ("irs", "df", "affg"):
                records[(parts[0], float(parts[1]), parts[2])] = {
                    "z": float(parts[6]), "result": parts[7],
                }
        return records

    def failures(self, records: dict) -> int:
        good = sum(
            1 for key in self.expected
            if key in records and records[key]["result"] == "ok"
            and abs(records[key]["z"]) <= VALIDATE_MAX_Z
        )
        return self.rows - good

    def corrupt(self, records: dict) -> dict:
        out = dict(records)
        key = next(iter(out))
        out[key] = dict(out[key], z=VALIDATE_MAX_Z + 1.0)
        return out


class McSurfaceWide:
    """``linksec sweep --method mc``: surface with N = 64..256, 10^5 samples."""

    name = "mc-surface-wide"

    def __init__(self):
        # Analytic irs_secrecy at each N, made by make_reference.py.
        self.reference = {
            float(r["value"]): float(r["secrecy_bps_hz"])
            for r in _read_csv(REF_DIR / "surface_irs.csv")
        }
        self.rows = len(self.reference)

    def setup_code(self, tmp: Path) -> str:
        return f"import linksec.cli as cli; cli.parse_config({str(tmp / 'surface.cfg')!r})"

    def prepare(self, tmp: Path, seed: int) -> list[str]:
        cfg = tmp / "surface.cfg"
        cfg.write_text(SCENARIO + SURFACE_SWEEP.format(master_seed=seed), encoding="utf-8")
        return ["sweep", "--config", str(cfg), "--out", str(tmp / "surface.csv"), "--method", "mc"]

    def read(self, tmp: Path, stdout: str) -> dict:
        return {float(r["value"]): r for r in _read_csv(tmp / "surface.csv")}

    def failures(self, records: dict) -> int:
        bad = 0
        for n, analytic in self.reference.items():
            row = records.get(n)
            if row is None or row["status"] != "ok":
                bad += 1
                continue
            se = float(row["std_error"])
            if not (se > 0 and abs(float(row["secrecy_bps_hz"]) - analytic) <= SURFACE_MAX_Z * se):
                bad += 1
        return bad

    def corrupt(self, records: dict) -> dict:
        out = dict(records)
        key = next(iter(out))
        row = dict(out[key])
        row["secrecy_bps_hz"] = repr(
            float(row["secrecy_bps_hz"]) + 2 * SURFACE_MAX_Z * float(row["std_error"])
        )
        out[key] = row
        return out


WORKLOADS = {w.name: w for w in (Fig3Analytic, Validate1e6, McSurfaceWide)}
