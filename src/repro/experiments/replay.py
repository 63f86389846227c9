"""End-to-end replays: Figures 7-12.

One shared runner builds the MBone-loaded 100 MBit scenario from a
:class:`~repro.experiments.config.ReplayConfig`, streams a dataset through
the adaptive pipeline in deterministic (modeled-cost) mode, and hands back
the :class:`~repro.core.pipeline.StreamResult` whose series methods *are*
the figures:

* Figure 7  — the load trace itself (:func:`figure7_trace_series`),
* Figure 8  — ``result.method_series()`` on commercial data,
* Figure 9  — ``result.compression_time_series()``,
* Figure 10 — ``result.block_size_series()``,
* Figure 11 — ``result.method_series()`` on molecular data,
* Figure 12 — ``result.block_size_series()`` on molecular data.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core.engine import Observer
from ..core.pipeline import AdaptivePipeline, StreamResult
from ..core.policy import AdaptivePolicy, CompressionPolicy
from ..data.commercial import CommercialDataGenerator
from ..data.logs import LogDataGenerator
from ..data.molecular import MolecularDataGenerator
from ..data.timeseries import TimeSeriesGenerator
from ..netsim.cpu import DEFAULT_COSTS, SUN_FIRE, CpuModel
from ..netsim.faults import FaultPlan, FaultyLink, RetryPolicy
from ..netsim.link import make_link
from ..netsim.loadtrace import LoadTrace, mbone_trace
from ..obs.metrics import MetricsRegistry
from .config import FIG8_CONFIG, FIG11_CONFIG, MBONE_SCALE, TRACE_DURATION, ReplayConfig

__all__ = [
    "build_trace",
    "commercial_blocks",
    "dataset_blocks",
    "log_blocks",
    "molecular_blocks",
    "timeseries_blocks",
    "make_policy",
    "run_replay",
    "figure7_trace_series",
    "figure8_commercial_replay",
    "figure11_molecular_replay",
]


def build_trace(config: ReplayConfig) -> LoadTrace:
    """The scaled (and possibly shifted) MBone trace for a replay."""
    trace = mbone_trace(duration=TRACE_DURATION, seed=config.trace_seed).scaled(MBONE_SCALE)
    if config.trace_offset > 0:
        trace = trace.shifted(config.trace_offset)
    return trace


def commercial_blocks(config: ReplayConfig, seed: int = 2004) -> List[bytes]:
    """The commercial transaction stream cut into pipeline blocks."""
    generator = CommercialDataGenerator(seed=seed)
    return list(generator.stream(config.block_size, config.block_count))


def molecular_blocks(
    config: ReplayConfig, atom_count: int = 4096, seed: int = 3
) -> List[bytes]:
    """The molecular trajectory stream cut into pipeline blocks."""
    generator = MolecularDataGenerator(atom_count=atom_count, seed=seed)
    return list(generator.stream(config.block_size, config.block_count))


def log_blocks(config: ReplayConfig, seed: int = 2004) -> List[bytes]:
    """The templated-log stream cut into pipeline blocks."""
    generator = LogDataGenerator(seed=seed)
    return list(generator.stream(config.block_size, config.block_count))


def timeseries_blocks(config: ReplayConfig, seed: int = 2004) -> List[bytes]:
    """The multi-channel telemetry stream cut into pipeline blocks."""
    generator = TimeSeriesGenerator(seed=seed)
    return list(generator.stream(config.block_size, config.block_count))


def dataset_blocks(name: str, config: ReplayConfig) -> List[bytes]:
    """Blocks for a replay dataset name (``repro replay --source``)."""
    builders = {
        "commercial": commercial_blocks,
        "molecular": molecular_blocks,
        "logs": log_blocks,
        "timeseries": timeseries_blocks,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise ValueError(f"unknown replay dataset: {name!r}") from None
    return builder(config)


def make_policy(config: ReplayConfig, cpu: Optional[CpuModel] = None) -> CompressionPolicy:
    """Build the selection policy a replay config names.

    ``"table"`` returns the default :class:`AdaptivePolicy`; ``"bicriteria"``
    arms the Pareto optimizer with the same modeled-cost substrate the
    replay pipeline itself uses (``DEFAULT_COSTS`` on ``SUN_FIRE``), so
    its frontier prices blocks exactly as the replay will account them.
    A non-default ``config.placement`` arms the break-even placement
    scheduler on either dialect; it needs the cost substrate too, so the
    table dialect gains it exactly when placement scheduling asks for it
    (the default-config table policy stays untouched).
    """
    placement_kwargs = {}
    if config.placement != "producer":
        placement_kwargs = dict(
            placement=config.placement,
            interference=config.interference,
            downstream_factor=config.downstream_factor,
            cost_model=DEFAULT_COSTS,
            cpu=cpu if cpu is not None else SUN_FIRE,
        )
    if config.policy == "table":
        return AdaptivePolicy(**placement_kwargs)
    if config.policy == "bicriteria":
        return AdaptivePolicy(
            policy="bicriteria",
            space_budget=config.space_budget,
            cost_model=DEFAULT_COSTS,
            cpu=cpu if cpu is not None else SUN_FIRE,
            **{k: v for k, v in placement_kwargs.items() if k not in ("cost_model", "cpu")},
        )
    raise ValueError(
        f"unknown policy {config.policy!r}; choose from ('table', 'bicriteria')"
    )


def run_replay(
    blocks: List[bytes],
    config: ReplayConfig,
    policy: Optional[CompressionPolicy] = None,
    cpu: Optional[CpuModel] = None,
    observers: Optional[Iterable[Observer]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> StreamResult:
    """Run one deterministic replay of ``blocks`` under ``config``.

    ``observers`` (e.g. a :class:`~repro.obs.block.BlockTelemetry`) are
    attached to the pipeline's block engine; observation is read-only, so
    the replay stays bit-identical with or without them.  ``registry``
    is handed to the pipeline's monitor, making selector-side metrics
    (speed/ratio gauges, ``repro_bicriteria_*``) visible to the caller.
    """
    link = make_link(
        config.link,
        seed=config.link_seed,
        congestion_per_connection=config.congestion_per_connection,
    )
    if policy is None:
        policy = make_policy(config, cpu=cpu)
    if config.fault_plan is not None:
        plan = (
            config.fault_plan
            if isinstance(config.fault_plan, FaultPlan)
            else FaultPlan.load(str(config.fault_plan))
        )
        link = FaultyLink(link, plan, retry=RetryPolicy(seed=plan.seed))
    pipeline = AdaptivePipeline(
        policy=policy,
        block_size=config.block_size,
        cost_model=DEFAULT_COSTS,
        cpu=cpu if cpu is not None else SUN_FIRE,
        observers=observers,
        registry=registry,
    )
    return pipeline.run(
        blocks,
        link,
        load=build_trace(config),
        production_interval=config.production_interval,
        pipelined=config.pipelined,
    )


def figure7_trace_series(step: float = 1.0, seed: int = FIG8_CONFIG.trace_seed) -> List[Tuple[float, float]]:
    """The raw (unscaled) MBone connection counts over time — Figure 7."""
    return list(mbone_trace(duration=TRACE_DURATION, seed=seed).sample(step))


def figure8_commercial_replay(
    config: ReplayConfig = FIG8_CONFIG,
    observers: Optional[Iterable[Observer]] = None,
) -> StreamResult:
    """The commercial-data replay behind Figures 8, 9 and 10."""
    return run_replay(commercial_blocks(config), config, observers=observers)


def figure11_molecular_replay(
    config: ReplayConfig = FIG11_CONFIG,
    observers: Optional[Iterable[Observer]] = None,
) -> StreamResult:
    """The molecular-data replay behind Figures 11 and 12."""
    return run_replay(molecular_blocks(config), config, observers=observers)
