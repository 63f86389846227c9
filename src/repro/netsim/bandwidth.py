"""End-to-end bandwidth estimation (paper refs [10-13]).

"Also continually measured is the speed with which compressed blocks are
accepted by receivers, thereby assessing both current network bandwidth
and receiver speed.  These end-to-end measurements are more relevant than
knowledge of actual network bandwidth, since decompression requires the
use of receivers' CPU cycles." (§2.5)

The estimator is an exponentially weighted moving average — cheap and
reactive.  It consumes raw observations of ``(bytes delivered, seconds
elapsed)`` and exposes bytes/second.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["EwmaBandwidthEstimator"]

#: EWMA weight of each new throughput sample.
ALPHA = 0.25


class EwmaBandwidthEstimator:
    """Exponentially weighted moving average of delivery throughput."""

    def __init__(self) -> None:
        self.reset()

    def observe(self, size: int, seconds: float) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        sample = size / seconds
        if self._estimate is None:
            self._estimate = sample
        else:
            self._estimate += ALPHA * (sample - self._estimate)
        self.observations += 1

    @property
    def estimate(self) -> Optional[float]:
        return self._estimate

    def reset(self) -> None:
        self._estimate: Optional[float] = None
        self.observations = 0
