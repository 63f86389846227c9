"""Unit tests for host calibration and the §2.5 threshold-calibration procedure."""

import pytest

from repro.compression.base import Codec, CodecError
from repro.compression.registry import get_codec
from repro.core.calibration import GATE_HEADROOM, ROUNDS, calibrate, calibrate_thresholds
from repro.core.engine import BlockStats, CodecExecutor
from repro.data.commercial import CommercialDataGenerator
from repro.netsim.cpu import DEFAULT_COSTS, CodecCost, CodecCostModel

_MB = 1 << 20

#: The paper's own operating points (Figure 2 ratios, Figure 3/4 speeds),
#: exactly as ``DEFAULT_COSTS`` carries them.
PAPER_LZ = CodecCost(2.2 * _MB, 9.8 * _MB, typical_ratio=0.41)
PAPER_BW = CodecCost(0.95 * _MB, 2.4 * _MB, typical_ratio=0.34)


def _model(lz: CodecCost = PAPER_LZ, bw: CodecCost = PAPER_BW) -> CodecCostModel:
    return CodecCostModel({"lempel-ziv": lz, "burrows-wheeler": bw})


@pytest.fixture(scope="module")
def sample():
    return CommercialDataGenerator(seed=4).xml_block(48 * 1024)


class TestOperatingPoint:
    """A codec's calibrated operating point (``CodecCost``) and the
    reducing speed the model derives from it — the Figure 4 formula."""

    def test_reducing_speed(self):
        model = CodecCostModel({"x": CodecCost(1000.0, 1000.0, typical_ratio=0.4)})
        assert model.reducing_speed("x") == pytest.approx(600.0)

    def test_incompressible_zero_reducing_speed(self):
        model = CodecCostModel({"x": CodecCost(1000.0, 1000.0, typical_ratio=1.0)})
        assert model.reducing_speed("x") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CodecCost(0.0, 1000.0, typical_ratio=0.5)
        with pytest.raises(ValueError):
            CodecCost(1.0, 1.0, typical_ratio=-0.1)


class TestCalibrate:
    def test_calibrate_measures_real_codecs(self, commercial_block):
        sample = commercial_block[:16384]
        model = calibrate(
            {"huffman": get_codec("huffman"), "lempel-ziv": get_codec("lempel-ziv")},
            sample,
        )
        huff = model.cost("huffman")
        assert huff.compress_throughput > 0
        assert huff.decompress_throughput > 0
        assert 0 < huff.typical_ratio < 1

    def test_median_of_the_rounds_after_one_warm_up(self, monkeypatch, sample):
        """One warm-up round trip is dropped, then each direction keeps the
        median of ``ROUNDS`` round trips: one slow sample is not the model."""
        compress = iter([100.0, 9.0, 1.0, 3.0, 50.0, 2.0])  # the warm-up first
        decompress = iter([100.0, 4.0, 8.0, 6.0, 5.0, 70.0])
        calls = []

        def scripted(executor, method, data, codec=None):
            calls.append(method)
            return BlockStats(
                method, method, len(data), len(data) // 2, next(compress), next(decompress)
            )

        monkeypatch.setattr(CodecExecutor, "measure_roundtrip", scripted)
        cost = calibrate({"lempel-ziv": get_codec("lempel-ziv")}, sample).cost("lempel-ziv")
        assert ROUNDS == 5
        assert calls == ["lempel-ziv"] * (1 + ROUNDS)
        assert cost.compress_throughput == len(sample) / 3.0
        assert cost.decompress_throughput == len(sample) / 6.0
        assert cost.typical_ratio == 0.5

    def test_calibrate_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            calibrate({}, b"")

    def test_calibrate_rejects_a_codec_that_does_not_round_trip(self, sample):
        """A codec whose decode is wrong gets no cost model: calibration
        round-trips through the engine, which checks the restored bytes."""

        class Reverser(Codec):
            name = "reverser"

            def compress(self, data: bytes) -> bytes:
                return data[::-1]

            def decompress(self, payload: bytes) -> bytes:
                return payload  # forgets to reverse back

        with pytest.raises(CodecError):
            calibrate({"reverser": Reverser()}, sample)


class TestCalibrateThresholds:
    def test_reproduces_paper_constants_from_paper_stats(self):
        """Applied to the paper's own Figure 2/4 numbers, the procedure
        recovers the paper's 0.83 / 3.48 / 0.4878 within a few percent —
        strong evidence this is how those constants were set."""
        thresholds = calibrate_thresholds(DEFAULT_COSTS)
        assert thresholds.compress_factor == pytest.approx(0.83, abs=0.001)
        assert thresholds.bw_factor == pytest.approx(3.48, rel=0.05)
        assert thresholds.ratio_gate == pytest.approx(0.4878, rel=0.01)
        assert thresholds == calibrate_thresholds(_model())

    def test_gate_headroom_matches_paper_derivation(self):
        assert GATE_HEADROOM * 0.41 == pytest.approx(0.4878, abs=0.001)

    def test_host_measured_thresholds_are_usable(self, sample):
        codecs = {name: get_codec(name) for name in ("lempel-ziv", "burrows-wheeler")}
        thresholds = calibrate_thresholds(calibrate(codecs, sample))
        assert 0.5 < thresholds.compress_factor < 1.0
        assert thresholds.bw_factor >= thresholds.compress_factor
        assert 0.2 < thresholds.ratio_gate <= 0.95

    def test_slower_bw_raises_bw_factor(self):
        slow_bw = CodecCost(0.4 * _MB, 2.4 * _MB, typical_ratio=0.34)
        slow = calibrate_thresholds(_model(bw=slow_bw))
        assert slow.bw_factor > calibrate_thresholds(_model()).bw_factor

    def test_gate_capped(self):
        poor_lz = CodecCost(2.2 * _MB, 9.8 * _MB, typical_ratio=0.9)
        assert calibrate_thresholds(_model(lz=poor_lz)).ratio_gate <= 0.95

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            calibrate_thresholds(calibrate({"lempel-ziv": get_codec("lempel-ziv")}, b""))

    def test_incompressible_points_rejected(self):
        flat = CodecCost(1e6, 1e6, typical_ratio=1.0)
        with pytest.raises(ValueError):
            calibrate_thresholds(_model(lz=flat, bw=flat))

    def test_calibrated_thresholds_drive_a_sane_run(self):
        """End to end: thresholds calibrated from the paper's operating
        points produce a reasonable adaptive run."""
        from repro.core.pipeline import AdaptivePipeline
        from repro.core.policy import AdaptivePolicy
        from repro.netsim.cpu import SUN_FIRE
        from repro.netsim.link import make_link

        pipeline = AdaptivePipeline(
            policy=AdaptivePolicy(calibrate_thresholds(DEFAULT_COSTS)),
            block_size=32 * 1024,
            cost_model=DEFAULT_COSTS,
            cpu=SUN_FIRE,
        )
        blocks = list(CommercialDataGenerator(seed=9).stream(32 * 1024, 10))
        result = pipeline.run(blocks, make_link("1mbit", seed=2))
        assert result.overall_ratio < 0.7  # it does compress on a slow link
