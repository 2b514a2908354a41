"""Quantified section 5.2 claims across the whole application suite.

The paper's reading of Figures 4-7: "a larger beta_m generally corresponds
to a greater amount of data migration", "the model captures the time
period of the oscillation" (BL2D, SC2D), "beta_C ... reflects a worst-case
scenario" and "beta_m ... is somewhat cautious; the amplitude was
generally slightly lower".
"""

from __future__ import annotations

from repro.experiments import APP_NAMES, shape_report

from conftest import BENCH_NPROCS


def test_shape_claims(benchmark, scale):
    report = benchmark.pedantic(
        shape_report,
        kwargs={"scale": scale, "nprocs": BENCH_NPROCS},
        rounds=1,
        iterations=1,
    )
    print()
    print(f"{'app':<6} {'corr(beta_m,mig)':>17} {'corr(beta_C,comm)':>18} "
          f"{'envelope':>9} {'amp-ratio':>10} {'lead':>5} {'periods (mig m/a)':>18}")
    for name in APP_NAMES:
        row = report[name]
        p = row["periods"]
        print(
            f"{name:<6} {row['migration_correlation']:>17.3f} "
            f"{row['comm_correlation']:>18.3f} "
            f"{row['comm_envelope_fraction']:>9.2f} "
            f"{row['migration_amplitude_ratio']:>10.2f} "
            f"{row['migration_lead']:>+5d} "
            f"{str(p['migration_model']) + '/' + str(p['migration_actual']):>18}"
        )
    if scale == "paper":
        _assert_claims(report)


def _assert_claims(report: dict) -> None:
    """The four section 5.2 claims; each failure names claim, app, value."""
    # Claim (a): beta_m co-moves with measured migration on most apps.
    corr = {n: report[n]["migration_correlation"] for n in APP_NAMES}
    assert sum(c > 0.2 for c in corr.values()) >= 3, (
        f"claim (a) beta_m correlates with measured migration: "
        f"corr(beta_m, migration) > 0.2 on fewer than 3 apps: {corr}"
    )
    # Claim (b): oscillation periods match for the oscillatory kernels.
    for name in ("bl2d", "sc2d"):
        p = report[name]["periods"]
        if p["migration_model"] and p["migration_actual"]:
            assert abs(p["migration_model"] - p["migration_actual"]) <= 2, (
                f"claim (b) {name} periods match: model period "
                f"{p['migration_model']} vs measured {p['migration_actual']}"
            )
    # Claim (c): beta_m leads or aligns, never lags badly (the paper's
    # "peaks one time-step before ... occasionally").
    for name in APP_NAMES:
        lead = report[name]["migration_lead"]
        assert lead >= -1, (
            f"claim (c) beta_m leads or aligns: {name} lags by {-lead} steps"
        )
    # Claim (d): beta_m is cautious — amplitude at or below measured.
    ratio = {n: report[n]["migration_amplitude_ratio"] for n in APP_NAMES}
    assert sum(r <= 1.1 for r in ratio.values()) >= 3, (
        f"claim (d) beta_m is cautious: amplitude ratio <= 1.1 on fewer "
        f"than 3 apps: {ratio}"
    )
