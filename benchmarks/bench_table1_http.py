"""Benchmark: regenerate Table 1 (HTTP performance of Apache behind an ADF).

Paper shape asserted: the ADF underperforms the standard NIC in every
configuration; throughput falls as the action rule moves deeper (the
paper's worst case is −41 %); connect and first-response latency grow
with depth but stay small in absolute terms; the first VPG costs a lot,
additional non-matching VPGs almost nothing.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import RunConfig, table1_http
from repro.experiments.presets import Preset

DEPTHS = (1, 16, 32, 64)
VPG_COUNTS = (1, 2, 4)


def test_table1_http_performance(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        table1_http.run,
        RunConfig(
            preset=Preset(name="bench", settings=bench_settings, depths=DEPTHS, vpg_counts=VPG_COUNTS),
            jobs=bench_jobs,
        ),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    baseline = result.standard_nic
    by_depth = {m.rule_depth: m for m in result.adf_standard}
    by_vpgs = {m.vpg_count: m for m in result.adf_vpg}

    # The ADF underperforms the standard NIC in every configuration.
    for measurement in result.adf_standard + result.adf_vpg:
        assert measurement.fetches_per_second < baseline.fetches_per_second

    # Throughput falls monotonically with depth; >=41% loss by 64 rules.
    rates = [by_depth[d].fetches_per_second for d in DEPTHS]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert by_depth[64].fetches_per_second < 0.59 * baseline.fetches_per_second

    # Latencies grow with depth but stay small (sub-5 ms on the LAN).
    assert by_depth[64].mean_connect_ms > by_depth[1].mean_connect_ms
    assert by_depth[64].mean_first_response_ms > by_depth[1].mean_first_response_ms
    assert by_depth[64].mean_first_response_ms < 5.0

    # VPG: big first hit, then flat across non-matching VPGs.
    assert by_vpgs[1].fetches_per_second < 0.7 * baseline.fetches_per_second
    assert by_vpgs[4].fetches_per_second > 0.8 * by_vpgs[1].fetches_per_second
