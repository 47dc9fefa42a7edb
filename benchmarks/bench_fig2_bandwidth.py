"""Benchmark: regenerate Figure 2 (available bandwidth vs. rule depth).

Paper shape asserted: full bandwidth at one rule for every device; no
significant loss below ~16 rules; at 64 rules the EFW loses roughly half
and the ADF roughly two thirds; iptables stays flat; the first VPG costs
a lot, extra non-matching VPGs nearly nothing.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import RunConfig, fig2_bandwidth
from repro.experiments.presets import Preset

DEPTHS = (1, 8, 16, 32, 64)
VPG_COUNTS = (1, 2, 4)


def test_fig2_available_bandwidth(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        fig2_bandwidth.run,
        RunConfig(
            preset=Preset(name="bench", settings=bench_settings, depths=DEPTHS, vpg_counts=VPG_COUNTS),
            jobs=bench_jobs,
        ),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    efw = dict(result.series["EFW"])
    adf = dict(result.series["ADF"])
    iptables = dict(result.series["iptables"])
    vpg = dict(result.series["ADF (VPG)"])

    # Full bandwidth at one rule (paper §4.1).
    assert efw[1] > 85 and adf[1] > 85 and iptables[1] > 85
    # iptables flat to 64 rules (Hoffman et al.).
    assert iptables[64] > 85
    # EFW ~half, ADF ~two-thirds loss at 64 rules.
    assert 0.40 < efw[64] / efw[1] < 0.65
    assert 0.25 < adf[64] / adf[1] < 0.50
    assert adf[64] < efw[64]
    # No significant loss below 16 rules for the EFW.
    assert efw[8] > 0.9 * efw[1]
    # Non-matching VPGs are nearly free (lazy decryption).
    assert vpg[2 * VPG_COUNTS[-1]] > 0.8 * vpg[2 * VPG_COUNTS[0]]
    # The first VPG costs a lot relative to plain filtering.
    assert vpg[2 * VPG_COUNTS[0]] < 0.7 * adf[1]
