"""Benchmark: the future-work extension — a flood-tolerant embedded NIC.

Asserted shape: the hardened card keeps full bandwidth at 64 rules, its
direct 64-byte throughput is wire-limited at every depth, and denying it
service requires link-saturating flood rates (the bare-NIC bound) —
versus the EFW's ~5 k pps at 64 rules.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import RunConfig, extension_hardened
from repro.experiments.presets import Preset
from repro.sim import units

DEPTHS = (1, 64)


def test_extension_hardened_nic(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        extension_hardened.run,
        RunConfig(
            preset=Preset(name="bench", settings=bench_settings, depths=DEPTHS),
            jobs=bench_jobs,
        ),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    efw_bw = dict(result.bandwidth["EFW"])
    hard_bw = dict(result.bandwidth["hardened"])
    efw_flood = dict(result.min_flood["EFW"])
    hard_flood = dict(result.min_flood["hardened"])
    hard_tput = dict(result.throughput_64b["hardened"])

    # Bandwidth: hardened flat to 64 rules; EFW loses ~half.
    assert hard_bw[64] > 0.95 * hard_bw[1]
    assert efw_bw[64] < 0.65 * efw_bw[1]

    # Direct throughput: wire-limited at every depth.
    for depth in DEPTHS:
        assert hard_tput[depth] > 0.97 * units.MAX_FRAME_RATE_64B

    # DoS: the hardened card only falls at link-saturating rates, at
    # least an order of magnitude above the EFW's 64-rule bar.
    efw_rate = efw_flood[64].rate_pps
    hard_rate = (
        hard_flood[64].rate_pps
        if hard_flood[64].measurable
        else units.MAX_FRAME_RATE_64B
    )
    assert hard_rate > 10 * efw_rate
    assert hard_rate > 80_000
