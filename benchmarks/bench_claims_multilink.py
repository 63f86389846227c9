"""§1 claims — compression utility across all link classes, low/high load.

"...significantly improve the speeds of data exchange [internationally],
in both low-load and high-load usage scenarios ... for home-based
machines, even when using broadband links like DSL ... In Intranets,
however, the utility of compression is less evident."
"""

from repro.experiments.multilink import multilink_matrix


def test_claims_multilink(benchmark):
    cells = benchmark.pedantic(multilink_matrix, rounds=1, iterations=1)
    print("\nmultilink utility matrix (1.5 MB commercial bulk, adaptive vs none)")
    print(f"{'link':14s} {'load':10s} {'adaptive s':>11s} {'none s':>9s} {'speedup':>8s}")
    for cell in cells:
        print(
            f"{cell.link:14s} {cell.load_label:10s} {cell.adaptive_seconds:11.2f} "
            f"{cell.uncompressed_seconds:9.2f} {cell.speedup:8.2f}"
        )
    by_key = {(c.link, c.load_label): c for c in cells}
    assert by_key[("1gbit", "low-load")].speedup < 1.3
    assert by_key[("international", "low-load")].speedup > 2.0
    assert by_key[("international", "high-load")].speedup > 2.0
    assert by_key[("dsl", "low-load")].speedup > 1.8
