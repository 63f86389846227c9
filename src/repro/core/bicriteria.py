"""Bicriteria per-block optimization — the principled decision table.

The paper's §2.5 selector is a hand-tuned threshold grid; Farruggia et
al.'s *bicriteria data compression* (PAPERS.md) gives the principled
replacement: per block, choose the codec **and its parameters** to
minimize modeled end-to-end time subject to a space budget.  This module
builds that machinery:

* :class:`CandidateSpec` — one point of the search grid: a registry
  method, canonical constructor params (LZ window/chain, BW chunk size),
  and a block size;
* :func:`evaluate_candidates` — model each candidate's
  ``(time, space)`` behaviour from :class:`~repro.netsim.cpu.CodecCostModel`
  calibration data, steered by measured reducing speeds and the 4 KB
  sampling probe;
* :func:`pareto_frontier` — prune to the small Pareto-optimal set (no
  point is both slower and larger than another);
* :func:`select_point` — pick the frontier point minimizing modeled
  end-to-end time ``compress + transfer + decompress`` under a
  configurable space budget (``ratio <= budget``); when no point fits
  the budget the space-minimal point is returned with a violation flag;
* :func:`codec_for` — resolve a chosen ``(method, params)`` to a real
  codec instance, so the wire bytes are exactly what a direct run of
  that codec would produce.

Parameter effects are modeled declaratively (:data:`PARAM_EFFECTS`):
halving an LZ window or a BW chunk buys throughput at a small ratio
penalty, with exponents fitted once against the microbenchmarks.  The
modeled numbers only *rank* candidates — the chosen codec still really
runs, so sizes on the wire are real and byte-identical to a direct run
(the CI bench gate enforces this).

Decoders for both parametrized families are parameter-agnostic (the LZ
token stream and the BW chunk terminators are self-describing), so a
receiver never needs to learn the sender's chosen parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..compression.base import Codec, CodecError, canonical_params, params_label
from ..compression.registry import available_codecs, get_codec
from .engine import DEFAULT_BLOCK_SIZE

__all__ = [
    "CandidateSpec",
    "FrontierPoint",
    "PARAM_EFFECTS",
    "DICTIONARY_METHODS",
    "default_candidates",
    "evaluate_candidates",
    "fastest_compressing_point",
    "sample_ratio",
    "pareto_frontier",
    "select_point",
    "codec_for",
]

#: Methods whose ratio estimate the 4 KB Lempel-Ziv probe refines
#: (dictionary/block-sorting families respond to the same structure).
DICTIONARY_METHODS = ("lempel-ziv", "burrows-wheeler", "lzw")

#: Ratio estimates are clamped into this band: a modeled ratio below 1 %
#: is calibration noise, one above 2.0 is a pathological expansion.
_MIN_RATIO, _MAX_RATIO = 0.01, 2.0

#: Time comparisons use this slack so float noise cannot flip a tie.
_EPSILON = 1e-12


@dataclass(frozen=True)
class ParamEffect:
    """Modeled effect of one codec parameter, relative to its default.

    For a value ``v`` against default ``d``, ``steps = log2(d / v)``
    (positive when the parameter shrinks).  Throughput scales by
    ``2 ** (throughput_exponent * steps)`` — smaller windows/chunks sort
    and match faster — and the ratio estimate inflates by
    ``1 + ratio_slope * steps`` — they also see less context.  Larger
    values swing both the other way.  The exponents are fitted once
    against the microbenchmark sweeps; only the *ranking* they induce
    matters, since real compressed sizes come from really running the
    chosen codec.
    """

    default: float
    throughput_exponent: float
    ratio_slope: float


#: method -> param name -> modeled effect.  Parameters not listed here
#: are passed to the codec constructor but priced as neutral.
PARAM_EFFECTS: Dict[str, Dict[str, ParamEffect]] = {
    "lempel-ziv": {
        # Smaller windows cut the match search; longer chains dig deeper.
        "window": ParamEffect(default=32768, throughput_exponent=0.22, ratio_slope=0.045),
        "max_chain": ParamEffect(default=8, throughput_exponent=0.30, ratio_slope=0.025),
    },
    "burrows-wheeler": {
        # Smaller chunks sort faster (n log n per chunk) but break context.
        "chunk_size": ParamEffect(default=32768, throughput_exponent=0.18, ratio_slope=0.05),
    },
}


@dataclass(frozen=True)
class CandidateSpec:
    """One point of the bicriteria search grid.

    ``params`` is the *canonical* tuple from
    :func:`repro.compression.base.canonical_params`; the empty tuple
    means "the codec's registered defaults" and always resolves through
    the shared registry instance.
    """

    method: str
    params: Tuple[Tuple[str, object], ...] = ()
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")

    @classmethod
    def make(
        cls,
        method: str,
        params: Optional[Mapping[str, object]] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> "CandidateSpec":
        return cls(method=method, params=canonical_params(params), block_size=block_size)

    @property
    def label(self) -> str:
        return f"{self.method}[{params_label(self.params)}]"


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-frontier candidate with its modeled criteria.

    ``ratio`` (compressed/original) is the *space* criterion; the *time*
    criterion is the modeled end-to-end cost ``compress + transfer +
    decompress``, normalized per input byte so frontiers may mix block
    sizes (larger blocks amortize per-transfer latency).
    """

    method: str
    params: Tuple[Tuple[str, object], ...]
    block_size: int
    ratio: float
    compress_seconds: float
    transfer_seconds: float
    decompress_seconds: float

    @property
    def total_seconds(self) -> float:
        """Modeled end-to-end seconds for one block of ``block_size``."""
        return self.compress_seconds + self.transfer_seconds + self.decompress_seconds

    @property
    def seconds_per_byte(self) -> float:
        return self.total_seconds / self.block_size

    @property
    def space(self) -> float:
        return self.ratio

    @property
    def label(self) -> str:
        return f"{self.method}[{params_label(self.params)}]"

    def dominates(self, other: "FrontierPoint") -> bool:
        """Pareto dominance: no worse on both criteria, better on one."""
        no_worse = (
            self.seconds_per_byte <= other.seconds_per_byte + _EPSILON
            and self.space <= other.space + _EPSILON
        )
        strictly_better = (
            self.seconds_per_byte < other.seconds_per_byte - _EPSILON
            or self.space < other.space - _EPSILON
        )
        return no_worse and strictly_better


def default_candidates(
    block_size: int = DEFAULT_BLOCK_SIZE,
    native: Optional[bool] = None,
) -> Tuple[CandidateSpec, ...]:
    """The search grid over (codec, parameters) at ``block_size``.

    Covers the paper's four methods at their registered defaults plus
    fast/thorough parameter variants of the two tunable families.

    ``native`` controls the optional zstd/lz4 fast-compressor tier:
    ``None`` (the default) includes each codec exactly when its binding
    registered, ``True`` demands them (``CodecError`` if unregistered),
    and ``False`` pins the grid to the always-available pure-Python
    methods — what the deterministic bench uses so baseline CRCs do not
    depend on which bindings the host happens to have.

    The structure-aware codecs (``template`` / ``columnar``) are never
    in the grid: their ``DEFAULT_COSTS`` ratios only hold on data the
    :mod:`repro.data.analysis` sniffers matched, and the modeled
    frontier cannot see the data.
    """
    from ..compression.native import HAVE_LZ4, HAVE_ZSTD

    native_methods: List[str] = []
    if native is True or (native is None and HAVE_ZSTD):
        native_methods.append("zstd-native")
    if native is True or (native is None and HAVE_LZ4):
        native_methods.append("lz4-native")
    if native is True:
        registered = set(available_codecs())
        missing = [name for name in native_methods if name not in registered]
        if missing:
            raise CodecError(
                f"native candidates demanded but not registered: {missing}"
            )
    specs = [
        CandidateSpec.make("none", block_size=block_size),
        CandidateSpec.make("huffman", block_size=block_size),
        CandidateSpec.make("lempel-ziv", block_size=block_size),
        CandidateSpec.make(
            "lempel-ziv", {"window": 4096, "max_chain": 4}, block_size=block_size
        ),
        CandidateSpec.make("lempel-ziv", {"max_chain": 32}, block_size=block_size),
        CandidateSpec.make("burrows-wheeler", block_size=block_size),
        CandidateSpec.make("burrows-wheeler", {"chunk_size": 8192}, block_size=block_size),
    ]
    specs.extend(CandidateSpec.make(method, block_size=block_size) for method in native_methods)
    return tuple(specs)


def _param_factors(
    method: str, params: Tuple[Tuple[str, object], ...]
) -> Tuple[float, float]:
    """(throughput factor, ratio factor) for a canonical param tuple."""
    throughput_factor = 1.0
    ratio_factor = 1.0
    effects = PARAM_EFFECTS.get(method, {})
    for key, value in params:
        effect = effects.get(key)
        if effect is None or not isinstance(value, (int, float)) or value <= 0:
            continue
        steps = math.log2(effect.default / float(value))
        throughput_factor *= 2.0 ** (effect.throughput_exponent * steps)
        ratio_factor *= max(1.0 + effect.ratio_slope * steps, 0.1)
    return throughput_factor, ratio_factor


def sample_ratio(sample: object) -> Optional[float]:
    """The compressed/original ratio of a probe result, a bare float, or None.

    The one reading of the policies' duck-typed ``sample`` argument.
    """
    return getattr(sample, "ratio", sample)


def _base_estimate(
    method: str,
    calibration: Optional[object],
    cpu: Optional[object],
    speeds: Mapping[str, float],
) -> Optional[Tuple[float, float, float]]:
    """(compress_throughput, decompress_throughput, ratio) or None.

    Calibration provides the reference operating point (scaled to the
    ``cpu``); a measured reducing speed for the method overrides the
    compression speed — that is how CPU load and data drift steer the
    optimizer between blocks, exactly like the table's reducing speed —
    via ``throughput = reducing_speed / (1 - ratio)``.  ``speeds`` carry
    no ratio, so without calibration the method is not priceable,
    however often it was observed.
    """
    compress = decompress = ratio = None
    if calibration is not None:
        try:
            cost = calibration.cost(method)
        except KeyError:
            cost = None
        if cost is not None:
            compress = cost.compress_throughput
            decompress = cost.decompress_throughput
            ratio = cost.typical_ratio
            if cpu is not None:
                compress = cpu.scale_speed(compress)
                decompress = cpu.scale_speed(decompress)
    speed = speeds.get(method, math.inf)
    if ratio is not None and ratio < 1.0 and speed > 0 and math.isfinite(speed):
        # Measured speeds are as-measured on this machine: no CPU scaling.
        compress = speed / max(1.0 - ratio, 1e-6)
        if decompress is None:
            decompress = compress
    if compress is None or decompress is None or ratio is None:
        return None
    return compress, decompress, ratio


def evaluate_candidates(
    candidates: Iterable[CandidateSpec],
    sending_time: float,
    calibration: Optional[object] = None,
    cpu: Optional[object] = None,
    speeds: Optional[Mapping[str, float]] = None,
    sample: Optional[object] = None,
    base_block_size: Optional[int] = None,
) -> Dict[CandidateSpec, FrontierPoint]:
    """Model every candidate the available data can price (a pure function).

    ``sending_time`` is the estimated time to send ``base_block_size``
    (default: each candidate's own block size) *uncompressed* — the same
    estimate the decision table consumes.  ``speeds`` are measured
    reducing speeds (``DecisionInputs.speeds``); a codec missing there
    reads ``math.inf`` and keeps its calibrated speed.  Candidates whose
    method has no calibration data are skipped — a measured speed only
    steers a calibrated method; ``none`` is always priceable, so the
    result is never empty.
    """
    if sending_time < 0:
        raise ValueError("sending_time must be non-negative")
    speeds = speeds if speeds is not None else {}
    probe = sample_ratio(sample)
    if not isinstance(probe, (int, float)) or math.isnan(probe) or probe < 0:
        probe = None  # an unusable probe prices like no probe
    lz_base = _base_estimate("lempel-ziv", calibration, cpu, speeds)
    points: Dict[CandidateSpec, FrontierPoint] = {}
    for spec in candidates:
        reference = base_block_size if base_block_size else spec.block_size
        raw_transfer = sending_time * (spec.block_size / reference)
        if spec.method == "none":
            points[spec] = FrontierPoint(
                method="none",
                params=(),
                block_size=spec.block_size,
                ratio=1.0,
                compress_seconds=0.0,
                transfer_seconds=raw_transfer,
                decompress_seconds=0.0,
            )
            continue
        base = _base_estimate(spec.method, calibration, cpu, speeds)
        if base is None:
            continue
        compress_throughput, decompress_throughput, ratio = base
        if probe is not None and spec.method in DICTIONARY_METHODS:
            # The probe measured Lempel-Ziv; rescale to this method by the
            # ratio gap between their base operating points.
            scale = ratio / lz_base[2] if lz_base and lz_base[2] > 0 else 1.0
            ratio = probe * scale
        throughput_factor, ratio_factor = _param_factors(spec.method, spec.params)
        ratio = min(max(ratio * ratio_factor, _MIN_RATIO), _MAX_RATIO)
        compress_throughput *= throughput_factor
        points[spec] = FrontierPoint(
            method=spec.method,
            params=spec.params,
            block_size=spec.block_size,
            ratio=ratio,
            compress_seconds=spec.block_size / compress_throughput,
            transfer_seconds=raw_transfer * ratio,
            decompress_seconds=spec.block_size / decompress_throughput,
        )
    return points


def pareto_frontier(points: Iterable[FrontierPoint]) -> List[FrontierPoint]:
    """Prune to the Pareto-optimal set, sorted fastest-first.

    A point survives iff no other point is at least as good on both
    criteria and strictly better on one.  Among modeled ties (both
    criteria equal) the first-listed point wins, which keeps default
    parameter sets ahead of exotic spellings.
    """
    ordered = sorted(
        points, key=lambda p: (p.seconds_per_byte, p.space)
    )
    frontier: List[FrontierPoint] = []
    best_space = math.inf
    for point in ordered:
        if point.space < best_space - _EPSILON:
            frontier.append(point)
            best_space = point.space
    return frontier


def fastest_compressing_point(
    points: Iterable[FrontierPoint],
) -> Optional[FrontierPoint]:
    """The modeled-fastest point that really compresses (ties: the smaller).

    What a placement is priced for when the selector itself chose
    ``none``; ``None`` when nothing compressing could be priced.
    """
    return min(
        (p for p in points if p.method != "none"),
        key=lambda p: (p.total_seconds, p.space),
        default=None,
    )


def select_point(
    frontier: Sequence[FrontierPoint], space_budget: float = 1.0
) -> Tuple[FrontierPoint, bool]:
    """Pick the time-minimal frontier point within the space budget.

    Returns ``(point, budget_violated)``.  ``space_budget`` caps the
    modeled compressed/original ratio; 1.0 (the default) only rules out
    modeled expansion, so ``none`` always remains feasible.  When *no*
    point fits the budget — a budget below the best achievable ratio —
    the space-minimal point is returned with ``budget_violated=True``
    so callers can count the miss instead of crashing the stream.
    """
    if not frontier:
        raise ValueError("frontier is empty")
    if space_budget <= 0:
        raise ValueError("space_budget must be positive")
    feasible = [p for p in frontier if p.space <= space_budget + _EPSILON]
    if feasible:
        return min(feasible, key=lambda p: (p.seconds_per_byte, p.space)), False
    return min(frontier, key=lambda p: (p.space, p.seconds_per_byte)), True


# -- codec resolution --------------------------------------------------------------

_CODEC_CACHE: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], Codec] = {}


def codec_for(method: str, params: Tuple[Tuple[str, object], ...] = ()) -> Codec:
    """Resolve a chosen point to a concrete codec instance.

    Default-parameter points resolve through the shared registry
    instance (so caches and wire bytes match every other path);
    parametrized points construct the registered codec's class with the
    canonical kwargs, memoized per ``(method, params)`` — codecs are
    stateless, so instances are shared freely.
    """
    if not params:
        return get_codec(method)
    key = (method, params)
    codec = _CODEC_CACHE.get(key)
    if codec is None:
        prototype = get_codec(method)
        codec = type(prototype)(**dict(params))
        _CODEC_CACHE[key] = codec
    return codec
