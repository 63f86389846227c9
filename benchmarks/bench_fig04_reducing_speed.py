"""Figure 4 — "reducing speed" (bytes removed per second) on two CPUs.

The paper measured a Sun-Fire-280R and an Ultra-Sparc, finding the
Sun-Fire roughly 2.4x faster across methods.  We measure the host (the
reference machine) and derive the second machine through its CpuModel —
then print both next to the paper-calibrated cost model that drives the
deterministic replays.
"""

from repro.experiments import commercial_sample, figure2_ratios, figure4_reducing_speeds
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE, ULTRA_SPARC

_MB = float(1 << 20)


def test_fig04_reducing_speeds(benchmark):
    data = commercial_sample(128 * 1024)
    model = benchmark.pedantic(figure2_ratios, args=(data,), rounds=1, iterations=1)
    speeds = figure4_reducing_speeds(model)
    print("\nfig04 reducing speed (MB/s removed)")
    print(f"{'method':18s} {'host(SunFire)':>14s} {'host(UltraSparc)':>17s} {'paper-model SF':>15s} {'paper-model US':>15s}")
    for method in ("burrows-wheeler", "lempel-ziv", "arithmetic", "huffman"):
        host_fast = speeds["Sun-Fire-280R"][method] / _MB
        host_slow = speeds["Ultra-Sparc"][method] / _MB
        model_fast = DEFAULT_COSTS.reducing_speed(method, SUN_FIRE) / _MB
        model_slow = DEFAULT_COSTS.reducing_speed(method, ULTRA_SPARC) / _MB
        print(f"{method:18s} {host_fast:14.3f} {host_slow:17.3f} {model_fast:15.3f} {model_slow:15.3f}")
    # Figure 4 shapes
    for machine in speeds.values():
        assert machine["huffman"] == max(machine.values())
        assert machine["arithmetic"] == min(machine.values())
    ratio = speeds["Sun-Fire-280R"]["huffman"] / speeds["Ultra-Sparc"]["huffman"]
    assert 2.0 < ratio < 3.0  # the paper's machine gap
