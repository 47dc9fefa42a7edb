"""Benchmark: regenerate Figure 3b (minimum DoS flood rate vs. rule depth).

Paper shape asserted: the minimum rate falls steeply with rule depth
(~45 k pps at one rule down to ~4.5 k pps at 64, allowed); denying the
flood roughly doubles the required rate; the EFW Deny series is
unmeasurable — the card locks up above ~1000 denied packets/s.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import RunConfig, fig3b_minflood
from repro.experiments.presets import Preset

DEPTHS = (1, 16, 64)


def test_fig3b_minimum_flood_rate(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        fig3b_minflood.run,
        RunConfig(
            preset=Preset(name="bench", settings=bench_settings, depths=DEPTHS, probe_duration=0.4),
            jobs=bench_jobs,
        ),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    efw_allow = dict(result.series["EFW (Allow)"])
    adf_allow = dict(result.series["ADF (Allow)"])
    adf_deny = dict(result.series["ADF (Deny)"])
    efw_deny = dict(result.series["EFW (Deny)"])

    # Steep decline with depth: one-rule DoS needs ~an order of magnitude
    # more flood than 64 rules (paper: ~45k -> ~4.5k pps).
    assert efw_allow[1].measurable and efw_allow[64].measurable
    assert efw_allow[1].rate_pps > 30000
    assert efw_allow[64].rate_pps < 10000
    assert efw_allow[64].rate_pps < efw_allow[1].rate_pps / 4

    # Denying the flood roughly doubles the required rate (ADF).
    for depth in DEPTHS:
        assert adf_deny[depth].rate_pps > 1.3 * adf_allow[depth].rate_pps

    # The EFW Deny case is unmeasurable at every depth: firmware lockup
    # above ~1000 denied packets/s.
    for depth in DEPTHS:
        assert efw_deny[depth].lockup
        assert efw_deny[depth].lockup_rate_pps <= 2000

    # The ADF's weaker matcher makes it easier to flood at depth.
    assert adf_allow[64].rate_pps < efw_allow[64].rate_pps
