"""Quickstart: codecs, the selector, and an adaptive run in ~60 lines.

Run:  python examples/quickstart.py
"""

from repro import (
    AdaptivePipeline,
    CommercialDataGenerator,
    get_codec,
    select_method,
    DecisionInputs,
)
from repro.netsim import DEFAULT_COSTS, SUN_FIRE, make_link, mbone_trace


def main() -> None:
    # --- 1. The compression methods (paper §2), all from scratch -------------
    data = CommercialDataGenerator().xml_block(128 * 1024)
    print("Compression of a 128 KB commercial-transaction block:")
    for method in ("huffman", "arithmetic", "lempel-ziv", "burrows-wheeler"):
        codec = get_codec(method)
        payload = codec.compress(data)
        assert codec.decompress(payload) == data
        print(f"  {method:16s} -> {100 * len(payload) / len(data):5.1f}% of original")

    # --- 2. One decision of the §2.5 selection algorithm ---------------------
    decision = select_method(
        DecisionInputs(
            block_size=128 * 1024,
            sending_time=0.4,        # slow, loaded link
            sampled_ratio=0.35,       # the 4 KB probe compressed well
            speeds={"lempel-ziv": 1.4e6},  # measured bytes-removed/second
        )
    )
    print(f"\nSelector for a loaded link + compressible sample: {decision.method}")

    # --- 3. A full adaptive run over a loaded 100 Mbit link ------------------
    blocks = list(CommercialDataGenerator().stream(128 * 1024, 40))
    pipeline = AdaptivePipeline(cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
    result = pipeline.run(
        blocks,
        make_link("100mbit", seed=1),
        load=mbone_trace().scaled(4.0),
        production_interval=1.5,
    )
    print("\nAdaptive stream over the MBone-loaded 100 Mbit link:")
    for key, value in result.summary().items():
        print(f"  {key:26s} {value:10.3f}")
    print(f"  methods used: {result.method_counts()}")


if __name__ == "__main__":
    main()
