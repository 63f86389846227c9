"""§2.5 threshold calibration — recovering the paper's constants.

"These numbers can be tuned easily by sampling even a small piece of
data..."  Applied to the paper's own Figure 2/4 operating points
(`DEFAULT_COSTS`), the procedure in `repro.core.calibration` reproduces
0.83 / 3.48 / 0.4878; applied to a `calibrate` model of this host it
produces this machine's constants.
"""

from repro.compression.registry import get_codec
from repro.core.calibration import calibrate, calibrate_thresholds
from repro.data.commercial import CommercialDataGenerator
from repro.netsim.cpu import DEFAULT_COSTS


def test_calibration(benchmark):
    sample = CommercialDataGenerator(seed=4).xml_block(48 * 1024)
    codecs = {name: get_codec(name) for name in ("lempel-ziv", "burrows-wheeler")}
    model = benchmark.pedantic(calibrate, args=(codecs, sample), rounds=1, iterations=1)
    h = calibrate_thresholds(model)
    p = calibrate_thresholds(DEFAULT_COSTS)

    print("\nthreshold calibration (compress_factor / bw_factor / ratio_gate)")
    print(f"  paper constants : 0.83 / 3.48 / 0.4878")
    print(f"  from paper stats: {p.compress_factor:.2f} / {p.bw_factor:.2f} / {p.ratio_gate:.4f}")
    print(f"  this host       : {h.compress_factor:.2f} / {h.bw_factor:.2f} / {h.ratio_gate:.4f}")

    assert abs(p.bw_factor - 3.48) / 3.48 < 0.05
    assert abs(p.ratio_gate - 0.4878) < 0.005
    assert h.bw_factor >= h.compress_factor
