"""Process-local metrics: counters, gauges, histograms (the obs core).

The paper's selector only works because the middleware continuously
measures itself — reducing speed, sending time, per-block method choice
(§2.5, §3 "IQ" quality attributes).  This module gives those
measurements one home: a :class:`MetricsRegistry` holding named metric
families, each fanned out over label sets (``channel=...``,
``method=...``).  Views such as
:class:`~repro.core.monitor.ReducingSpeedMonitor` and
:class:`~repro.middleware.monitoring.ChannelMonitor` store their state
here, so ``repro stats`` and the bench gate read everything from one
place.

Design constraints:

* **No clocks.**  Nothing in this module reads wall-clock time; values
  arrive from the sanctioned timing sites (:mod:`repro.core.engine`,
  ``netsim``) or from virtual clocks.  That keeps telemetry free of
  behavioral drift — the golden replays are bit-identical with or
  without observers attached.
* **Fixed histogram buckets.**  Bucket boundaries are declared at
  registration, so two runs (or two machines) aggregate into comparable
  shapes — the property Matt et al.'s comparative benchmark schema
  relies on.
* **Bounded cardinality.**  A metric family refuses to grow past
  ``max_series`` label combinations; a typo'd unbounded label (event id,
  timestamp) fails loudly instead of eating memory.
* **Declared label keys.**  A family built from a
  :mod:`~repro.obs.catalogue` row refuses a new series whose label keys
  differ from the row's, so a misspelt key cannot silently fork one.
* **Bound series.**  A per-block emitter writes through a
  :class:`BoundCounter` / :class:`BoundGauge` from
  :meth:`MetricsRegistry.series`: its label set is resolved once, and a
  write is then one slot access instead of a family lookup plus a label
  resolution.  Keyword writes and bound writes export identically.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .catalogue import DEFAULT_SECONDS_BUCKETS, Metric

__all__ = [
    "BoundCounter",
    "BoundGauge",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
]

#: Labels are stored as a canonical sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default per-family series bound; generous for channel×method fan-out,
#: far below anything an unbounded label would produce.
DEFAULT_MAX_SERIES = 1024


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _MetricFamily:
    """Shared label bookkeeping for the three metric kinds."""

    kind = "metric"

    #: The exact label keys of every series, for a family built from a
    #: catalogue row; ``None`` (registered by bare name) is unconstrained.
    label_keys: Optional[FrozenSet[str]] = None

    def __init__(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        if max_series < 1:
            raise ValueError("max_series must be positive")
        self.name = name
        self.help = help
        self.max_series = max_series
        self._series: Dict[LabelKey, object] = {}
        #: A label set as a call spelled it -> its canonical key (a pure memo).
        self._keys: Dict[Tuple[Tuple[str, Any], ...], LabelKey] = {}
        #: Moves whenever a series leaves (``remove``, ``clear``, a cleared
        #: registry), so a :class:`BoundSeries` never writes to a dropped slot.
        self._epoch = 0

    def _key(self, labels: Mapping[str, str]) -> LabelKey:
        """The canonical key of ``labels``: one dict lookup on the call's own
        pairs (in call order) for a label set seen before.

        Only all-``str`` values are remembered: ``1``, ``1.0`` and ``True``
        hash and compare equal yet stringify apart, so any other value is
        canonicalised by :func:`_label_key` every time.  At most twice
        ``max_series`` spellings are remembered (reads of label sets that
        name no series count too); past that a new one is sorted per call.
        """
        items = tuple(labels.items())
        key = self._keys.get(items)
        if key is None:
            key = _label_key(labels)
            if len(self._keys) < 2 * self.max_series and all(
                type(value) is str for _, value in items
            ):
                self._keys[items] = key
        return key

    def _slot(self, labels: Mapping[str, str]) -> object:
        key = self._key(labels)
        slot = self._series.get(key)
        if slot is None:
            if self.label_keys is not None and labels.keys() != self.label_keys:
                # A misspelt key is both: name the typo, not the key it replaced.
                unknown = sorted(labels.keys() - self.label_keys)
                stray, state = (
                    (unknown[0], "unknown")
                    if unknown
                    else (min(self.label_keys - labels.keys()), "missing")
                )
                raise ValueError(
                    f"metric {self.name!r} declares labels {sorted(self.label_keys)}; "
                    f"label {stray!r} is {state}"
                )
            if len(self._series) >= self.max_series:
                raise ValueError(
                    f"metric {self.name!r} exceeded max_series={self.max_series}; "
                    "an unbounded label is probably leaking"
                )
            slot = self._new_slot()
            self._series[key] = slot
        return slot

    def _new_slot(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def series_count(self) -> int:
        return len(self._series)

    def labelsets(self) -> List[Dict[str, str]]:
        """Every label combination observed so far."""
        return [dict(key) for key in self._series]

    def clear(self) -> None:
        """Drop every series (used by view resets)."""
        self._series.clear()
        self._epoch += 1


class Counter(_MetricFamily):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def _new_slot(self) -> List[float]:
        return [0.0]

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self._slot(labels)[0] += amount  # type: ignore[index]

    def value(self, **labels: str) -> float:
        slot = self._series.get(self._key(labels))
        return slot[0] if slot is not None else 0.0  # type: ignore[index]

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(slot[0] for slot in self._series.values())  # type: ignore[index]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": slot[0]}  # type: ignore[index]
                for key, slot in sorted(self._series.items())
            ],
        }


class Gauge(_MetricFamily):
    """A settable point-in-time value, per label set."""

    kind = "gauge"

    def _new_slot(self) -> List[float]:
        return [0.0]

    def set(self, value: float, **labels: str) -> None:
        self._slot(labels)[0] = float(value)  # type: ignore[index]

    def add(self, amount: float, **labels: str) -> None:
        self._slot(labels)[0] += amount  # type: ignore[index]

    def value(self, default: Optional[float] = None, **labels: str) -> Optional[float]:
        slot = self._series.get(self._key(labels))
        return slot[0] if slot is not None else default  # type: ignore[index]

    def has(self, **labels: str) -> bool:
        return self._key(labels) in self._series

    def remove(self, **labels: str) -> None:
        if self._series.pop(self._key(labels), None) is not None:
            self._epoch += 1

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": slot[0]}  # type: ignore[index]
                for key, slot in sorted(self._series.items())
            ],
        }


class _HistogramSlot:
    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, bucket_count: int) -> None:
        self.counts = [0] * bucket_count
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_MetricFamily):
    """Fixed-boundary histogram, per label set.

    ``boundaries`` are the upper-inclusive bucket edges; one implicit
    overflow bucket catches everything above the last edge.  Boundaries
    are fixed at registration so aggregates from different runs are
    directly comparable.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        boundaries: Iterable[float],
        help: str = "",
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, help=help, max_series=max_series)
        edges = [float(b) for b in boundaries]
        if not edges:
            raise ValueError("histogram needs at least one bucket boundary")
        if edges != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.boundaries: Tuple[float, ...] = tuple(edges)

    def _new_slot(self) -> _HistogramSlot:
        return _HistogramSlot(len(self.boundaries) + 1)

    def observe(self, value: float, **labels: str) -> None:
        slot: _HistogramSlot = self._slot(labels)  # type: ignore[assignment]
        # Edges are upper-inclusive: a value exactly on boundary i lands
        # in bucket i; anything above the last edge is overflow.
        index = bisect_left(self.boundaries, value)
        slot.counts[index] += 1
        slot.sum += value
        slot.count += 1
        slot.min = min(slot.min, value)
        slot.max = max(slot.max, value)

    def snapshot(self, **labels: str) -> Optional[dict]:
        slot = self._series.get(self._key(labels))
        if slot is None:
            return None
        assert isinstance(slot, _HistogramSlot)
        return {
            "boundaries": list(self.boundaries),
            "counts": list(slot.counts),
            "sum": slot.sum,
            "count": slot.count,
            "min": slot.min if slot.count else None,
            "max": slot.max if slot.count else None,
            "mean": slot.sum / slot.count if slot.count else None,
        }

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "boundaries": list(self.boundaries),
            "series": [
                {"labels": dict(key), **(self.snapshot(**dict(key)) or {})}
                for key, _ in sorted(self._series.items())
            ],
        }


_KINDS = {"counter": Counter, "gauge": Gauge}


class BoundSeries:
    """One series of a catalogue family, its label set resolved once.

    :meth:`MetricsRegistry.series` hands it out with its canonical key
    computed and the registry untouched.  The first write finds the family (building it from its
    row) and creates the series exactly as a keyword write would, label
    keys validated; a read of a series nobody wrote answers the default
    and creates nothing, family included.  After that an access is one
    slot read or write.  A removed series, a cleared family or a cleared
    registry moves the family's epoch, and the next access resolves
    again, so a handle never writes to a dropped slot.
    """

    __slots__ = ("_registry", "_row", "_labels", "_key", "_family", "_epoch", "_slot")

    def __init__(self, registry: MetricsRegistry, row: Metric, labels: Dict[str, str]) -> None:
        self._registry = registry
        self._row = row
        self._labels = labels
        self._key = _label_key(labels)
        self._family: Optional[_MetricFamily] = None
        self._epoch = -1
        self._slot: Any = None

    def _live(self) -> Any:
        """The series' slot, created on first use."""
        slot = self._slot
        if slot is None or self._family._epoch != self._epoch:  # type: ignore[union-attr]
            family = self._registry.family(self._row)
            slot = family._slot(self._labels)
            self._family, self._epoch, self._slot = family, family._epoch, slot
        return slot

    def _found(self) -> Any:
        """The series' slot, or ``None`` while it does not exist."""
        family = self._family
        if family is None or family._epoch != self._epoch:
            family = self._registry._existing(self._row.name, self._row.kind)
            if family is None:
                return None
            self._family, self._epoch, self._slot = family, family._epoch, None
        slot = self._slot
        if slot is None:
            slot = self._slot = family._series.get(self._key)
        return slot


class BoundCounter(BoundSeries):
    """A bound :class:`Counter` series, counting one event per :meth:`inc`."""

    __slots__ = ()

    def inc(self) -> None:
        self._live()[0] += 1.0

    def value(self) -> float:
        slot = self._found()
        return slot[0] if slot is not None else 0.0


class BoundGauge(BoundSeries):
    """A bound :class:`Gauge` series."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self._live()[0] = float(value)

    def value(self) -> Optional[float]:
        """The gauge's value, ``None`` while it was never set."""
        slot = self._found()
        return slot[0] if slot is not None else None


_BOUND = {"counter": BoundCounter, "gauge": BoundGauge}


class MetricsRegistry:
    """A process-local namespace of metric families.

    Registration is idempotent: asking for an existing name returns the
    existing family (histogram boundaries must match), and a family is
    only constructed on a miss.  Asking for an existing name as a
    *different kind* is an error — one name, one meaning.  Library
    emitters go through :meth:`family` with a
    :mod:`~repro.obs.catalogue` row; the by-name methods remain for
    reading a family back and for ad-hoc series.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _MetricFamily] = {}

    # -- registration ------------------------------------------------------------

    def _existing(self, name: str, kind: str) -> Optional[_MetricFamily]:
        family = self._metrics.get(name)
        if family is not None and family.kind != kind:
            raise ValueError(f"metric {name!r} already registered as {family.kind}")
        return family

    def family(self, row: Metric) -> Any:
        """The family a catalogue row declares, built from it on first use.

        One dict lookup on the hot path.  The row is the declaration:
        kind (so the result is a :class:`Counter`, :class:`Gauge` or
        :class:`Histogram`), help, boundaries and the label keys every
        new series must carry all come from it.
        """
        family = self._existing(row.name, row.kind)
        if family is None:
            if row.kind == "histogram":
                family = Histogram(row.name, row.boundaries, help=row.help)
            else:
                family = _KINDS[row.kind](row.name, help=row.help)
            family.label_keys = row.labels
            # setdefault: two shard threads may first-touch one family.
            family = self._metrics.setdefault(row.name, family)
        return family

    def series(self, row: Metric, **labels: str) -> Any:
        """A :class:`BoundCounter` or :class:`BoundGauge` on one label set
        of ``row``'s family; the family is not looked up, and nothing is
        created, until the handle is used."""
        bound = _BOUND.get(row.kind)
        if bound is None:
            raise ValueError(f"metric {row.name!r} is a {row.kind}; only counters and gauges bind")
        return bound(self, row, labels)

    def counter(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> Counter:
        family = self._existing(name, "counter")
        if family is None:
            family = self._metrics.setdefault(name, Counter(name, help, max_series))
        return family  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", max_series: int = DEFAULT_MAX_SERIES) -> Gauge:
        family = self._existing(name, "gauge")
        if family is None:
            family = self._metrics.setdefault(name, Gauge(name, help, max_series))
        return family  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        boundaries: Iterable[float] = DEFAULT_SECONDS_BUCKETS,
        help: str = "",
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Histogram:
        family = self._existing(name, "histogram")
        if family is None:
            family = self._metrics.setdefault(name, Histogram(name, boundaries, help, max_series))
        elif family.boundaries != tuple(float(b) for b in boundaries):  # type: ignore[attr-defined]
            raise ValueError(f"histogram {name!r} re-registered with different boundaries")
        return family  # type: ignore[return-value]

    # -- access ------------------------------------------------------------------

    def get(self, name: str) -> Optional[_MetricFamily]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def clear(self) -> None:
        for family in self._metrics.values():
            family._epoch += 1
        self._metrics.clear()

    # -- export ------------------------------------------------------------------

    def as_dict(self) -> dict:
        return {name: family.as_dict() for name, family in sorted(self._metrics.items())}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


#: The process-local default registry `repro stats` and library consumers
#: share when none is passed explicitly.
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-local default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests, CLI runs); returns the old one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
