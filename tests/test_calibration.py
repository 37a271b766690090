"""Calibration: the simulator's z-scores across the parameter box are N(0, 1).

A single-seed check at 4-5 s.e. cannot see a standard error that is too
large, since every estimate then passes.  Here every point of a fixed
grid, written down before any run, is simulated with its own seeds, and
each z = (Monte Carlo - analytic) / s.e. is pooled per receiver: the two
receivers of one run share the first hop, so they are not independent.

The grid: every hop at shape 0.5, 2, 2.5, 10 or 40 (2 is drawn by the
paired uniform-product rule, the others by ``standard_gamma``), powers
-30, 0, 50 and 120 dB, and the surface at N = 1, 64 and 1024 beside both
relays.  N = 1024 draws about 3,000 values a sample, so it takes one seed
of 1,001 samples; the rest take five seeds of 4,001.  Both counts leave
one sub-chunk odd, so its last row is unpaired.  Each (point, seed) draws
from its own master seed, so no two runs share draws.
"""

import itertools

import numpy as np
import pytest
from scipy import stats

from linksec.channels import FadingParams, Scenario
from linksec.montecarlo import McConfig, branches

SHAPES = (0.5, 2.0, 2.5, 10.0, 40.0)
POWERS_DB = (-30.0, 0.0, 50.0, 120.0)
# (architecture, elements, samples, seeds)
RUNS = (
    ("irs", 1, 4001, 5),
    ("irs", 64, 4001, 5),
    ("irs", 1024, 1001, 1),
    ("df", 1, 4001, 5),
    ("affg", 1, 4001, 5),
)
MAX_ABS_Z = 5.0
MEAN_TOL = 0.15
SD_TOL = 0.15
KS_MIN_P = 1e-3


def scenario(shape, power_dbm, n):
    return Scenario(
        d_source_node=13.0, d_node_legit=10.0, d_node_eve=20.0, pathloss_exponent=2.0,
        fading_source_node=FadingParams(shape, 1.0),
        fading_node_legit=FadingParams(shape, 1.0),
        fading_node_eve=FadingParams(shape, 1.0),
        tx_power_dbm=power_dbm,
        noise_power_relay=0.01,
        noise_power_legit=0.01,
        noise_power_eve=0.01,
        n_elements=n,
    )


@pytest.fixture(scope="module")
def z_scores():
    """{receiver index: [(point, z), ...]} over the whole grid."""
    pooled = {0: [], 1: []}
    seed = 0
    for shape, power in itertools.product(SHAPES, POWERS_DB):
        for arch, n, samples, seeds in RUNS:
            scn = scenario(shape, power, n)
            analytic = branches(scn, arch)
            for _ in range(seeds):
                seed += 1
                mc = branches(scn, arch, McConfig(samples, seed))
                for receiver, (ana, sim) in enumerate(zip(analytic, mc)):
                    z = (sim.bits_per_sec_hz - ana.bits_per_sec_hz) / sim.std_error
                    pooled[receiver].append(((arch, n, shape, power, seed), z))
    return pooled


def test_no_z_beyond_five(z_scores):
    far = [(point, z) for pool in z_scores.values() for point, z in pool if not abs(z) <= MAX_ABS_Z]
    assert far == []


@pytest.mark.parametrize("receiver", [0, 1], ids=["legit", "eve"])
def test_pooled_z_is_standard_normal(z_scores, receiver):
    z = np.array([value for _, value in z_scores[receiver]])
    assert z.size == len(SHAPES) * len(POWERS_DB) * sum(run[3] for run in RUNS)
    assert abs(z.mean()) <= MEAN_TOL
    assert abs(z.std(ddof=1) - 1.0) <= SD_TOL
    assert stats.kstest(z, "norm").pvalue >= KS_MIN_P
