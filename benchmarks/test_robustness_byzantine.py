"""ROB-BYZ — reconstruction error vs fraction of Byzantine sensors.

A lossy channel drops rows of Phi; a lying sensor *poisons* them.  The
worst liar is the adversarial one that also understates its noise std:
under GLS weighting (eq. 12) a claimed-perfect row gets enormous
weight, so a handful of such rows can steer the naive solve arbitrarily
far ("masking" — the corrupted fit makes the liars' residuals look
normal).  The gls_std_floor caps the weight a claim can buy, and the
robust modes (trim / huber) built on LTS concentration reject or
down-weight the poisoned rows outright.

This bench sweeps the adversarial fraction over a single-zone round at
N=1024 and compares naive GLS against trim and huber.  The headline
acceptance numbers: at 10% adversarial nodes the trim reconstruction
stays within 2x the fault-free baseline RMSE while the naive solve
degrades by at least 5x.

Smoke mode (``REPRO_ROBBYZ_SMOKE=1``) shrinks the grid and the sweep so
CI exercises the full path without the N=1024 solve cost.
"""

from __future__ import annotations

import os

import numpy as np

from repro.fields.generators import smooth_field
from repro.middleware import broker
from repro.middleware.config import BrokerConfig
from repro.middleware.nanocloud import NanoCloud
from repro.network.bus import MessageBus
from repro.sensors.base import Environment
from repro.sensors.faults import (
    Adversarial,
    SensorFaultInjector,
    afflict_fraction,
)

from _util import (
    CLEAN_FITS_BUDGET,
    FITS_CAP,
    record_series,
    recorded_robust_fits,
)

SMOKE = os.environ.get("REPRO_ROBBYZ_SMOKE", "") not in ("", "0")

W, H = (12, 8) if SMOKE else (32, 32)
N = W * H
M = N // 2
SEEDS = (3,) if SMOKE else (3, 5, 7)
FRACTIONS = (0.0, 0.1) if SMOKE else (0.0, 0.05, 0.1, 0.2)
MODES = ("none", "trim", "huber")
OFFSET = 9.0  # ~2x the field amplitude: wildly wrong but plausible
CLAIMED_STD = 0.01  # understated (honest sensors report 0.3)
# The full series' trim rows as committed before the concentration
# fit's C-steps became objective-monotone (PR 22), to the table's four
# significant digits: the stop rule may not move them at 0/5/10 %
# adversarial, nor make 20 % worse.
PRIOR_TRIM_RMSE = {0.0: 0.2341, 0.05: 0.2429, 0.1: 0.2553, 0.2: 0.2765}


def _environment():
    truth = smooth_field(
        W, H, cutoff=0.15, amplitude=4.0, offset=20.0, rng=0
    )
    return truth, Environment(fields={"temperature": truth})


def _run_one(fraction: float, mode: str, seed: int):
    truth, env = _environment()
    bus = MessageBus()
    nc = NanoCloud.build(
        "nc", bus, W, H, n_nodes=N,
        config=BrokerConfig(seed=seed, robust_mode=mode),
        heterogeneous=False, rng=seed,
    )
    if fraction > 0:
        injector = SensorFaultInjector()
        afflict_fraction(
            injector,
            sorted(nc.nodes),
            fraction,
            lambda nid: Adversarial(offset=OFFSET, claimed_std=CLAIMED_STD),
            seed=seed,
        )
        for node in nc.nodes.values():
            node.fault_injector = injector
    with recorded_robust_fits(broker) as solves:
        estimate = nc.run_round(env, measurements=M)
    rmse = float(
        np.sqrt(
            np.mean((truth.vector() - estimate.field.vector()) ** 2)
        )
    )
    return {
        "rmse": rmse,
        "rejected": estimate.rejected_reports,
        "effective_m": estimate.effective_m,
        "degraded": estimate.degraded,
        "fits": sum(solve.fits for solve in solves),
    }


def _run_mean(fraction: float, mode: str):
    runs = [_run_one(fraction, mode, seed) for seed in SEEDS]
    out = {
        key: float(np.mean([run[key] for run in runs]))
        for key in ("rmse", "rejected", "effective_m", "fits")
    }
    out["degraded"] = any(run["degraded"] for run in runs)
    out["max_fits"] = max(run["fits"] for run in runs)
    return out


def test_robustness_byzantine(benchmark):
    rows = []
    by_key = {}
    for fraction in FRACTIONS:
        for mode in MODES:
            run = _run_mean(fraction, mode)
            by_key[(fraction, mode)] = run
            rows.append(
                [
                    fraction,
                    mode,
                    run["rmse"],
                    run["rejected"],
                    run["effective_m"],
                    run["degraded"],
                    run["fits"],
                ]
            )

    # Fault-free: the robust wrappers must not cost accuracy.  (Exact
    # bit-identity holds under bounded noise — tests/core/test_robust.py
    # proves it property-based; with Gaussian noise at M=512 a rare
    # honest row legitimately crosses the 3.5-sigma screen, so the
    # bench asserts near-equality.)
    baseline = by_key[(0.0, "none")]["rmse"]
    assert by_key[(0.0, "trim")]["rmse"] <= 1.05 * baseline
    assert by_key[(0.0, "huber")]["rmse"] <= 1.2 * baseline

    # Headline: at 10% adversarial nodes the naive GLS solve collapses
    # (the understated stds buy the liars crushing weight) while trim
    # stays within 2x the fault-free baseline.
    naive_10 = by_key[(0.1, "none")]["rmse"]
    trim_10 = by_key[(0.1, "trim")]["rmse"]
    assert naive_10 >= 5.0 * baseline
    assert trim_10 <= 2.0 * baseline
    assert trim_10 < naive_10
    # Trim actually rejected rows and said so in the telemetry.
    assert by_key[(0.1, "trim")]["rejected"] > 0
    assert by_key[(0.1, "trim")]["degraded"]

    # Huber (soft mode) must also beat naive under attack, even if it
    # concedes more than trim's hard rejection does.
    assert by_key[(0.1, "huber")]["rmse"] < naive_10

    # Any nonzero liar fraction poisons the naive solve badly.  (The
    # RMSE saturates once the fit is fully captured, so no
    # monotonicity is asserted past collapse.)  Trim keeps holding
    # even at the worst fraction.
    for f in FRACTIONS[1:]:
        assert by_key[(f, "none")]["rmse"] >= 3.0 * baseline
    worst = FRACTIONS[-1]
    assert by_key[(worst, "trim")]["rmse"] < by_key[(worst, "none")]["rmse"]

    # The robust solve's fit count, read off the RobustFit the broker
    # got back: no round can exceed the refit cap, and the smoke shape's
    # clean rounds (8 fits) stay inside the clean budget.  The full
    # shape's do not have to: at M=512 a clean start's objective keeps
    # falling for 4-8 C-steps (18/17/10 fits at the three seeds).
    assert max(run["max_fits"] for run in by_key.values()) <= FITS_CAP
    if SMOKE:
        for mode in ("trim", "huber"):
            assert by_key[(0.0, mode)]["max_fits"] <= CLEAN_FITS_BUDGET
    else:
        for f, prior in PRIOR_TRIM_RMSE.items():
            now = float(f"{by_key[(f, 'trim')]['rmse']:.4g}")
            if f == FRACTIONS[-1]:
                assert now <= prior
            else:
                assert now == prior

    record_series(
        "ROB-BYZ",
        f"RMSE vs adversarial fraction (N={N}, M={M}, "
        f"mean of {len(SEEDS)} seeds"
        + ("; SMOKE sweep" if SMOKE else "")
        + ")",
        ["fraction", "mode", "rmse", "rejected", "eff_M", "degraded", "fits"],
        rows,
        notes=f"adversarial: offset +{OFFSET}, claimed std {CLAIMED_STD} "
        "vs honest 0.3; trim holds <=2x the fault-free baseline at 10% "
        "while naive GLS degrades >=5x",
    )

    benchmark(lambda: _run_one(0.1, "trim", SEEDS[0]))
