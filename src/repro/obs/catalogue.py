"""The metric catalogue: every ``repro_*`` series, declared exactly once.

One row per series — name, kind, help, the label keys it is emitted
with, and (histograms) its bucket boundaries.  This module is the only
place in ``src/repro`` where a metric name or help string is spelled
(``scripts/check.sh`` enforces it), so ``repro stats``, the docs, a test
and the cross-layer trace can all enumerate the vocabulary from
:data:`CATALOGUE` instead of guessing at it.

Emitters resolve a row on their registry and write to the family::

    registry.family(CACHE_HITS_TOTAL).inc(method=method, params=label)

The registry builds the family from the row on first use and holds
every new series to the row's label keys, so a typo'd label fails
loudly instead of forking a series.  Where one domain event lands in
several series, the ``record_*`` helper that folds it sits directly
under the rows it writes.

Label discipline (bounded cardinality): codecs are labeled by ``method``
plus the *canonical* params label from
:func:`repro.compression.base.params_label` (callers pass the string),
shards by index, placements by the fixed
:data:`~repro.core.placement.PLACEMENTS` tuple, structured channels by
their small closed kind sets — never by event id or timestamp, and at
fabric scale never by channel id.

Deliberately import-free: every layer, including ``compression`` (which
``obs`` must never import), can name a series without an import cycle.
Registries and stats objects are duck-typed.
"""

#: Default histogram boundaries: sub-millisecond to tens of seconds,
#: roughly log-spaced — covers codec times from 4 KB samples to 128 KB
#: Burrows-Wheeler blocks on slow hosts.
DEFAULT_SECONDS_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0
)

#: Default boundaries for compression ratios (compressed / original).
DEFAULT_RATIO_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Every declared row by series name, in declaration order.
CATALOGUE = {}


class Metric:
    """One catalogue row; constructing it declares the series."""

    __slots__ = ("kind", "name", "help", "labels", "boundaries")

    def __init__(self, kind, name, help, labels=(), boundaries=()):
        if name in CATALOGUE:
            raise ValueError(f"metric {name!r} declared twice")
        self.kind = kind
        self.name = name
        self.help = help
        #: The exact label keys every series of this family carries.
        self.labels = frozenset(labels)
        #: Upper-inclusive bucket edges (histograms only, else empty).
        self.boundaries = tuple(boundaries)
        CATALOGUE[name] = self


def _counter(name, help, *labels):
    return Metric("counter", name, help, labels)


def _gauge(name, help, *labels):
    return Metric("gauge", name, help, labels)


def _histogram(name, help, boundaries, *labels):
    return Metric("histogram", name, help, labels, boundaries)


# -- per-block execution (BlockTelemetry and the middleware handlers) ---------------

BLOCKS_TOTAL = _counter("repro_blocks_total", "blocks executed", "channel", "method")
FALLBACKS_TOTAL = _counter(
    "repro_block_fallbacks_total", "expansion-guard fallbacks to method=none", "channel", "method"
)
BYTES_IN_TOTAL = _counter(
    "repro_block_bytes_in_total", "uncompressed bytes in", "channel", "method"
)
BYTES_OUT_TOTAL = _counter("repro_block_bytes_out_total", "wire bytes out", "channel", "method")
COMPRESSION_SECONDS = _histogram(
    "repro_block_compression_seconds", "per-block compression seconds (engine-accounted)",
    DEFAULT_SECONDS_BUCKETS, "channel", "method",
)
DECOMPRESSION_SECONDS = _histogram(
    "repro_block_decompression_seconds", "per-block decompression seconds (engine-accounted)",
    DEFAULT_SECONDS_BUCKETS, "channel", "method",
)
BLOCK_RATIO = _histogram(
    "repro_block_ratio", "per-block compressed/original ratio",
    DEFAULT_RATIO_BUCKETS, "channel", "method",
)


def record_execution(registry, channel: str, stats) -> None:
    """Fold one codec run (a ``BlockStats``) into ``registry``.

    Shared by the engine observer and the compression handlers, so both
    paths land under the same names and channel/method labels.
    """
    labels = {"channel": channel, "method": stats.method}
    registry.family(BLOCKS_TOTAL).inc(**labels)
    registry.family(BYTES_IN_TOTAL).inc(stats.original_size, **labels)
    registry.family(BYTES_OUT_TOTAL).inc(stats.compressed_size, **labels)
    if stats.fell_back:
        registry.family(FALLBACKS_TOTAL).inc(channel=channel, method=stats.requested_method)
    registry.family(COMPRESSION_SECONDS).observe(stats.compression_seconds, **labels)
    if stats.decompression_seconds:
        registry.family(DECOMPRESSION_SECONDS).observe(stats.decompression_seconds, **labels)
    if stats.original_size:
        registry.family(BLOCK_RATIO).observe(stats.ratio, **labels)


HANDLER_RECONFIGURATIONS_TOTAL = _counter(
    "repro_handler_reconfigurations_total", "runtime codec parameter changes", "channel", "method"
)

# -- worker pool and pipelined engine (core.workers) --------------------------------

POOL_TASKS_TOTAL = _counter(
    "repro_pool_tasks_total", "codec tasks dispatched to pool workers", "pool_mode"
)
POOL_DEGRADED_TOTAL = _counter(
    "repro_pool_degraded_total", "pool degradations to serial execution", "pool_mode"
)
POOL_WORKERS = _gauge("repro_pool_workers", "configured pool worker count", "pool_mode")
PIPELINE_BLOCKS_TOTAL = _counter(
    "repro_pipeline_blocks_total", "blocks emitted by pipelined block engines",
    "pool_mode", "queue_depth",
)

# -- the selector's feedback loop (core.monitor, core.policy) -----------------------

REDUCING_SPEED = _gauge(
    "repro_reducing_speed_bytes_per_second", "EWMA reducing speed (bytes removed / second)", "codec"
)
CODEC_RATIO = _gauge(
    "repro_codec_ratio", "EWMA compression ratio (compressed / original)", "codec"
)
CODEC_OBSERVATIONS_TOTAL = _counter(
    "repro_codec_observations_total", "speed observations folded into the EWMA", "codec"
)
SELECTOR_DEGRADED_TOTAL = _counter(
    "repro_selector_degraded_total", "selector fell back to 'none' on stale monitor feedback"
)

# -- bicriteria optimizer (core.policy, policy="bicriteria") ------------------------

FRONTIER_SIZE_GAUGE = _gauge(
    "repro_bicriteria_frontier_size", "Pareto frontier size behind the latest decision"
)
CHOICES_TOTAL = _counter(
    "repro_bicriteria_choices_total", "bicriteria decisions by chosen (method, params)",
    "method", "params",
)
BUDGET_VIOLATIONS_TOTAL = _counter(
    "repro_bicriteria_budget_violations_total",
    "decisions where no frontier point fit the space budget",
)
CHOSEN_SECONDS_GAUGE = _gauge(
    "repro_bicriteria_modeled_seconds", "modeled end-to-end seconds of the latest chosen point",
    "method", "params",
)


def record_choice(
    registry,
    frontier_size: int,
    method: str,
    params: str,
    modeled_seconds: float,
    budget_violated: bool,
) -> None:
    """Fold one bicriteria decision into ``registry`` (``params`` is the label)."""
    registry.family(FRONTIER_SIZE_GAUGE).set(float(frontier_size))
    registry.family(CHOICES_TOTAL).inc(method=method, params=params)
    registry.family(CHOSEN_SECONDS_GAUGE).set(modeled_seconds, method=method, params=params)
    if budget_violated:
        registry.family(BUDGET_VIOLATIONS_TOTAL).inc()


# -- placement scheduler and the consumer-offload relay -----------------------------

PLACEMENT_CHOICES_TOTAL = _counter(
    "repro_placement_choices_total", "placement decisions by (placement, method, params)",
    "placement", "method", "params",
)
PLACEMENT_SECONDS_GAUGE = _gauge(
    "repro_placement_modeled_seconds", "modeled end-to-end seconds of the latest chosen placement",
    "placement",
)
#: The counterpart the CI placement gate holds the choice <= to.
PLACEMENT_PRODUCER_SECONDS_GAUGE = _gauge(
    "repro_placement_producer_modeled_seconds", "modeled always-producer seconds on the same inputs"
)
PLACEMENT_DEGRADED_TOTAL = _counter(
    "repro_placement_degraded_total", "placement decisions degraded to producer on stale feedback"
)


def record_placement(
    registry,
    placement: str,
    method: str,
    params: str,
    modeled_seconds: float,
    producer_seconds: float,
) -> None:
    """Fold one placement decision into ``registry`` (``params`` is the label)."""
    registry.family(PLACEMENT_CHOICES_TOTAL).inc(
        placement=placement, method=method, params=params
    )
    registry.family(PLACEMENT_SECONDS_GAUGE).set(modeled_seconds, placement=placement)
    registry.family(PLACEMENT_PRODUCER_SECONDS_GAUGE).set(producer_seconds)


RELAY_EVENTS_TOTAL = _counter(
    "repro_placement_relay_events_total", "blocks re-compressed by the consumer-offload relay",
    "method", "params",
)
RELAY_BYTES_SAVED_TOTAL = _counter(
    "repro_placement_relay_bytes_saved_total", "payload bytes removed by relay-side compression",
    "method",
)


def record_relay_event(registry, method: str, params: str, bytes_in: int, bytes_out: int) -> None:
    """Fold one relay re-compression into ``registry`` (``params`` is the label)."""
    registry.family(RELAY_EVENTS_TOTAL).inc(method=method, params=params)
    registry.family(RELAY_BYTES_SAVED_TOTAL).inc(max(0, bytes_in - bytes_out), method=method)


# -- event fabric: shared block cache, shard loops, jumbo batching ------------------

CACHE_HITS_TOTAL = _counter(
    "repro_fabric_cache_hits_total", "compressed blocks served from the shared cache",
    "method", "params",
)
CACHE_MISSES_TOTAL = _counter(
    "repro_fabric_cache_misses_total", "cache misses that ran the codec", "method", "params"
)
CACHE_EVICTIONS_TOTAL = _counter(
    "repro_fabric_cache_evictions_total", "LRU evictions from the shared block cache",
    "method", "params",
)
CACHE_BYTES = _gauge("repro_fabric_cache_bytes", "compressed bytes held by the cache")
CACHE_ENTRIES = _gauge("repro_fabric_cache_entries", "entries held by the cache")


def record_cache_size(registry, bytes_held: int, entries: int) -> None:
    """Publish the cache's current footprint."""
    registry.family(CACHE_BYTES).set(bytes_held)
    registry.family(CACHE_ENTRIES).set(entries)


FABRIC_EVENTS_TOTAL = _counter(
    "repro_fabric_events_total", "events processed by fabric shards", "shard"
)
FABRIC_DELIVERIES_TOTAL = _counter(
    "repro_fabric_deliveries_total", "subscriber deliveries fanned out", "shard"
)
FABRIC_COMPRESSIONS_TOTAL = _counter(
    "repro_fabric_compressions_total", "codec runs the fabric actually paid for", "shard"
)
FABRIC_FANOUT_RATIO = _gauge(
    "repro_fabric_fanout_ratio", "deliveries per published event (running)"
)
FABRIC_SHARD_QUEUE_DEPTH = _gauge(
    "repro_fabric_shard_queue_depth", "pending events per fabric shard", "shard"
)
#: Threads mode only: how often a publisher found the shard idle.
FABRIC_INLINE_DISPATCH_TOTAL = _counter(
    "repro_fabric_inline_dispatch_total",
    "items an idle shard ran on the publisher's thread", "shard",
)


def record_fabric_delivery(
    registry,
    shard: int,
    deliveries: int,
    compressions: int,
    events_total: int,
    deliveries_total: int,
) -> None:
    """Fold one processed event into the shard's fabric counters.

    ``deliveries`` is this event's fan-out (subscriptions served) and
    ``compressions`` how many codec runs it took (cache misses only);
    the running totals feed the fan-out ratio gauge — delivered events
    per published event, the number the compress-once story scales.
    """
    shard_label = str(shard)
    registry.family(FABRIC_EVENTS_TOTAL).inc(shard=shard_label)
    registry.family(FABRIC_DELIVERIES_TOTAL).inc(deliveries, shard=shard_label)
    if compressions:
        registry.family(FABRIC_COMPRESSIONS_TOTAL).inc(compressions, shard=shard_label)
    if events_total:
        registry.family(FABRIC_FANOUT_RATIO).set(deliveries_total / events_total)


BATCH_FRAMES_TOTAL = _counter(
    "repro_batch_frames_total", "event frames coalesced into jumbo super-frames", "reason"
)
BATCH_FILL_RATIO = _gauge(
    "repro_batch_fill_ratio", "payload fill ratio of the last flushed batch", "reason"
)


def record_batch_flush(registry, frames: int, fill_ratio: float, reason: str) -> None:
    """Fold one flushed jumbo frame into the batching series.

    ``frames`` is how many inner event frames the super-frame coalesced;
    ``fill_ratio`` is its payload bytes over the batcher's byte budget
    (how full the batch was when it shipped), and ``reason`` labels what
    tripped the flush — ``frames``/``bytes`` thresholds, a ``deadline``
    expiry, or an explicit ``drain``.
    """
    registry.family(BATCH_FRAMES_TOTAL).inc(frames, reason=reason)
    registry.family(BATCH_FILL_RATIO).set(fill_ratio, reason=reason)


# -- structure-aware codecs (compression.structured) --------------------------------

#: The fallback *rate* is the ratio of the two outcomes.
STRUCTURED_BLOCKS_TOTAL = _counter(
    "repro_structured_blocks_total", "blocks seen by structure-aware codecs by outcome",
    "codec", "outcome",
)
#: Fallback blocks alone, for cheap alerting without label math.
STRUCTURED_FALLBACK_TOTAL = _counter(
    "repro_structured_fallback_total", "blocks that took the whole-block raw fallback", "codec"
)
STRUCTURED_TEMPLATES_MINED_TOTAL = _counter(
    "repro_structured_templates_mined_total",
    "templates mined / columns transposed in structured blocks",
    "codec",
)
STRUCTURED_CHANNEL_BYTES_TOTAL = _counter(
    "repro_structured_channel_bytes_total", "encoded slot-channel bytes by channel kind",
    "codec", "channel",
)


def record_structured_block(
    registry, codec: str, *, fallback: bool, templates: int = 0, channel_bytes=()
) -> None:
    """Record one structured-codec compress call.

    ``channel_bytes`` maps channel kind (``int``/``ip``/``hex``/``raw``
    template slots, ``raw``/``delta``/``dod`` columns) to encoded bytes.
    """
    registry.family(STRUCTURED_BLOCKS_TOTAL).inc(
        codec=codec, outcome="fallback" if fallback else "structured"
    )
    if fallback:
        registry.family(STRUCTURED_FALLBACK_TOTAL).inc(codec=codec)
        return
    if templates:
        registry.family(STRUCTURED_TEMPLATES_MINED_TOTAL).inc(templates, codec=codec)
    counter = registry.family(STRUCTURED_CHANNEL_BYTES_TOTAL)
    for kind, size in dict(channel_bytes).items():
        if size:
            counter.inc(size, codec=codec, channel=kind)


# -- channel quality (middleware.monitoring) ----------------------------------------

CHANNEL_EVENTS_TOTAL = _counter(
    "repro_channel_events_total", "events observed", "channel", "method"
)
CHANNEL_ORIGINAL_BYTES_TOTAL = _counter(
    "repro_channel_original_bytes_total", "application bytes observed", "channel"
)
CHANNEL_WIRE_BYTES_TOTAL = _counter(
    "repro_channel_wire_bytes_total", "wire bytes observed", "channel"
)
#: ``ChannelQuality`` field -> the gauge each ``publish`` refreshes.
CHANNEL_QUALITY = {
    "event_rate": _gauge("repro_channel_quality_event_rate", "windowed event rate", "channel"),
    "goodput": _gauge("repro_channel_quality_goodput", "windowed goodput", "channel"),
    "wire_throughput": _gauge(
        "repro_channel_quality_wire_throughput", "windowed wire throughput", "channel"
    ),
    "mean_transport_seconds": _gauge(
        "repro_channel_quality_mean_transport_seconds", "windowed mean transport seconds", "channel"
    ),
    "compression_ratio": _gauge(
        "repro_channel_quality_compression_ratio", "windowed compression ratio", "channel"
    ),
}

# -- real TCP transport (middleware.tcp) --------------------------------------------

TCP_FRAMES_FORWARDED_TOTAL = _counter(
    "repro_tcp_frames_forwarded_total", "event frames forwarded to remote subscribers", "channel"
)
TCP_WIRE_BYTES_TOTAL = _counter(
    "repro_tcp_wire_bytes_total", "frame bytes sent to remote subscribers", "channel"
)
TCP_SUBSCRIPTIONS_TOTAL = _counter(
    "repro_tcp_subscriptions_total", "accepted remote subscriptions", "channel"
)
TCP_RECONNECTS_TOTAL = _counter(
    "repro_tcp_reconnects_total", "successful reconnect+resubscribe recoveries", "channel"
)
TCP_FRAMES_RECEIVED_TOTAL = _counter(
    "repro_tcp_frames_received_total", "event frames received from the server", "channel", "method"
)
TCP_WIRE_BYTES_RECEIVED_TOTAL = _counter(
    "repro_tcp_wire_bytes_received_total", "frame bytes received from the server", "channel"
)

# -- reliable delivery over a hostile wire (middleware.chaos) -----------------------

FRAGMENTS_REREQUESTED_TOTAL = _counter(
    "repro_fragments_rerequested_total", "damaged fragments the receiver asked for again"
)
FRAMES_REJECTED_TOTAL = _counter(
    "repro_frames_rejected_total", "arrivals the CRC-checked frame decode rejected"
)
DUPLICATES_DROPPED_TOTAL = _counter(
    "repro_duplicates_dropped_total", "arrivals dropped as already-accepted sequences"
)
DELIVERIES_FAILED_TOTAL = _counter(
    "repro_deliveries_failed_total", "events undelivered after the last retry attempt"
)
EVENT_RETRIES_TOTAL = _counter(
    "repro_event_retries_total", "event retransmissions after a backoff"
)

# -- fault injection on the simulated link (netsim.faults) --------------------------

FAULTS_INJECTED_TOTAL = _counter(
    "repro_faults_injected_total", "faults the plan injected into transfers", "kind"
)
LINK_RETRIES_TOTAL = _counter(
    "repro_link_retries_total", "transfer re-sends after a dropped or corrupted frame"
)
