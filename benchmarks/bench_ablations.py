"""Benchmarks: design-choice ablations (DESIGN.md §4).

* response-traffic: the allow-vs-deny flood factor comes from host
  responses crossing the card,
* lazy-decrypt: "non-matching VPGs are nearly free" requires laziness,
* ring-size: the ring bound shapes the collapse knee, not the capacity.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import RunConfig, ablations


def test_ablation_response_traffic(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        ablations.response_traffic,
        bench_settings,
        config=RunConfig(jobs=bench_jobs),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    with_responses = result.outcomes["allowed flood, responses ON"]
    without_responses = result.outcomes["allowed flood, responses OFF"]
    deny_reference = result.outcomes["denied flood (reference)"]

    # Muting host responses recovers most of the deny-case tolerance:
    # the factor-of-two is response traffic, not the verdict itself.
    assert without_responses > 1.5 * with_responses
    assert without_responses > 0.7 * deny_reference


def test_ablation_lazy_decrypt(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        ablations.lazy_decrypt,
        bench_settings,
        vpg_counts=(1, 4, 8),
        config=RunConfig(jobs=bench_jobs),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    # Lazy: flat in VPG count.  Eager: decays with VPG count.
    assert result.outcomes["lazy, 8 VPG(s)"] > 0.8 * result.outcomes["lazy, 1 VPG(s)"]
    assert result.outcomes["eager, 8 VPG(s)"] < 0.75 * result.outcomes["eager, 1 VPG(s)"]


def test_ablation_ring_size(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        ablations.ring_size,
        bench_settings,
        ring_sizes=(16, 64, 256),
        config=RunConfig(jobs=bench_jobs),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    # The ring bound does not rescue a saturated processor: even a 16x
    # larger ring leaves the card far below clean bandwidth.
    for value in result.outcomes.values():
        assert value < 60


def test_ablation_stateful_firewall(benchmark, bench_settings, bench_jobs):
    result = run_once(
        benchmark,
        ablations.stateful_firewall,
        bench_settings,
        config=RunConfig(jobs=bench_jobs),
    )
    print()
    print(result.table())
    benchmark.extra_info["table"] = result.table()

    outcomes = result.outcomes
    # Full bandwidth either way at 100 Mbps (software filtering is cheap).
    assert outcomes["stateless: bandwidth (Mbps), depth 256"] > 85
    assert outcomes["stateful:  bandwidth (Mbps), depth 256"] > 85
    # The conntrack fast path cuts filtering CPU on deep policies.
    assert (
        outcomes["stateful:  filtering CPU (ms)"]
        < 0.7 * outcomes["stateless: filtering CPU (ms)"]
    )
    # And introduces its own DoS surface: table exhaustion.
    assert outcomes["stateful:  flows dropped, table full"] > 0
    assert outcomes["stateful:  Mbps during spoofed flood (256-entry table)"] < 10
