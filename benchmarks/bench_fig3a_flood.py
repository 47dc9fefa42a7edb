"""Benchmark: regenerate Figure 3a (bandwidth during flood, 1-rule rule-set).

Paper shape asserted: the standard NIC and iptables keep delivering under
the flood (only link sharing is lost); the EFW and ADF lose a major
portion mid-range and hit ~0 near 30 % of the 64-byte maximum frame rate;
the single-VPG ADF declines near-linearly and dies earliest.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import RunConfig, fig3a_flood
from repro.experiments.presets import Preset

FLOOD_RATES = (0, 10000, 20000, 30000, 40000, 50000)


def test_fig3a_bandwidth_under_flood(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        fig3a_flood.run,
        RunConfig(
            preset=Preset(name="bench", settings=bench_settings, flood_rates=FLOOD_RATES, repetitions=2),
            jobs=bench_jobs,
        ),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    none = dict(result.series["No Firewall"])
    iptables = dict(result.series["iptables"])
    efw = dict(result.series["EFW"])
    adf = dict(result.series["ADF"])
    vpg = dict(result.series["ADF (VPG)"])

    # Embedded firewalls are denied service by 50k pps (~34 % of max frame
    # rate; the paper's DoS point is ~30 %).
    assert efw[50000] < 2.0
    assert adf[50000] < 2.0
    # Standard NIC and iptables still deliver at the same flood rate.
    assert none[50000] > 10 * max(efw[50000], 0.1)
    assert iptables[20000] > 40
    assert none[20000] > 40
    # Mid-range: the EFW has already lost a major portion vs. clean.
    assert efw[40000] < 0.5 * efw[0]
    # The VPG channel is the most fragile and declines from a lower base.
    assert vpg[0] < 0.7 * adf[0]
    assert vpg[20000] < 0.6 * vpg[0] + 1
