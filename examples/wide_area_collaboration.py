"""Wide-area scientific collaboration (paper §1's motivating scenario).

A molecular-dynamics simulation in Atlanta streams trajectory frames to a
collaborator at Bar-Ilan over the international Internet link (0.109 MB/s
mean, 46 % jitter — Figure 5).  The same stream is replayed with every
fixed policy and with the adaptive selector; on a link this slow even
modest compression wins, and the adaptive policy must land near the best
fixed choice without being told anything about the data.

Run:  python examples/wide_area_collaboration.py
"""

from repro import FixedPolicy, MolecularDataGenerator
from repro.experiments import ReplayConfig, run_replay

# Bulk transfer on an otherwise idle international link, sent asynchronously.
CONFIG = ReplayConfig(
    link="international", link_seed=7, load=0.0, production_interval=0.0, pipelined=True
)


def main() -> None:
    generator = MolecularDataGenerator(atom_count=4096, seed=11)
    blocks = list(generator.stream(128 * 1024, 24))  # 3 MB of trajectory
    total_mb = sum(len(b) for b in blocks) / (1 << 20)
    print(f"Streaming {total_mb:.1f} MB of MD trajectory Atlanta -> Ramat-Gan\n")

    print(f"{'policy':24s} {'total s':>9s} {'wire MB':>9s} {'ratio':>7s}")
    results = {}
    for label, policy in [
        ("fixed: none", FixedPolicy("none")),
        ("fixed: huffman", FixedPolicy("huffman")),
        ("fixed: lempel-ziv", FixedPolicy("lempel-ziv")),
        ("fixed: burrows-wheeler", FixedPolicy("burrows-wheeler")),
        ("adaptive (paper §2.5)", None),
    ]:
        result = run_replay(blocks, CONFIG, policy=policy)
        results[label] = result
        print(
            f"{label:24s} {result.total_time:9.1f} "
            f"{result.total_compressed_bytes / (1 << 20):9.2f} "
            f"{result.overall_ratio:7.2f}"
        )

    adaptive = results["adaptive (paper §2.5)"]
    best_fixed = min(
        (r.total_time, label) for label, r in results.items() if label != "adaptive (paper §2.5)"
    )
    print(f"\nadaptive methods chosen: {adaptive.method_counts()}")
    print(
        f"adaptive total {adaptive.total_time:.1f}s vs best fixed "
        f"({best_fixed[1]}) {best_fixed[0]:.1f}s — no manual tuning required."
    )


if __name__ == "__main__":
    main()
