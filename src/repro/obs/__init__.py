"""repro.obs — the unified observability subsystem.

One home for everything the system knows about itself:

* :mod:`repro.obs.catalogue` — the one table of every ``repro_*``
  series (name, kind, help, label keys, histogram boundaries) and the
  few ``record_*`` helpers that fold one domain event into several of
  them; import-free, so every layer can name a series;
* :mod:`repro.obs.metrics` — process-local counters, gauges, and
  fixed-bucket histograms in a :class:`MetricsRegistry`, which resolves
  a catalogue row to its family (``registry.family(ROW)``) and holds new
  series to the row's declared label keys;
* :mod:`repro.obs.trace` — JSON-lines span/event traces
  (:class:`TraceWriter` / :func:`read_trace`);
* :mod:`repro.obs.block` — :class:`BlockTelemetry`, the
  :class:`~repro.core.engine.BlockEngine` observer recording per-block
  method choice, sizes, engine-accounted times, and expansion-guard
  fallbacks;
* :mod:`repro.obs.benchfmt` — the machine-readable benchmark-result
  schema and the tolerance-band regression comparator behind the CI
  bench-smoke gate.

Nothing here reads wall-clock time: values arrive from the sanctioned
timing sites (:mod:`repro.core.engine`, ``netsim``) or from virtual
clocks, so attaching telemetry cannot perturb the deterministic replays.
"""

from .benchfmt import (
    SCHEMA as BENCH_SCHEMA,
    BenchMetric,
    BenchReport,
    Comparison,
    Regression,
    compare_reports,
    load_report,
)
from .block import BlockTelemetry
from .catalogue import CATALOGUE, Metric
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .trace import TraceWriter, read_trace

__all__ = [
    "BENCH_SCHEMA",
    "BenchMetric",
    "BenchReport",
    "BlockTelemetry",
    "CATALOGUE",
    "Comparison",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "Regression",
    "TraceWriter",
    "compare_reports",
    "get_registry",
    "load_report",
    "read_trace",
    "set_registry",
]
