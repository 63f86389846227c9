"""Measurement pieces shared by every workload: spans, segments, summaries.

Nothing here knows about a particular workload.  The clock reads in this
file and its siblings are the benchmark's own — ``src/repro`` keeps its
one-timing-site invariant because the benchmark only ever calls public
functions from outside.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.compression.registry import get_codec, register_codec
from repro.obs.trace import TraceWriter

#: Application megabyte used by every MB/s and s/MB metric (decimal).
MB = 1e6

#: Event attribute carrying the benchmark's op id end to end.
ATTR_OP = "bench.op"


# -- spans -----------------------------------------------------------------------


class Span:
    """One timed interval; a context manager that nests per thread."""

    __slots__ = (
        "tracer", "name", "op", "tag", "parent", "thread",
        "start", "end", "cpu", "child_cpu", "_cpu0",
    )

    def __init__(self, tracer: "Tracer", name: str, op: Optional[int], tag: str) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op
        self.tag = tag
        self.parent: Optional[Span] = None
        self.child_cpu = 0.0

    def __enter__(self) -> "Span":
        stack = self.tracer.stack()
        if stack:
            self.parent = stack[-1]
            if self.op is None:
                self.op = self.parent.op
        stack.append(self)
        self.thread = threading.get_ident()
        self.start = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cpu = time.thread_time() - self._cpu0
        self.end = time.perf_counter()
        self.tracer.stack().pop()
        if self.parent is not None:
            self.parent.child_cpu += self.cpu
        self.tracer.spans.append(self)

    @property
    def self_cpu(self) -> float:
        """Busy time of this span alone: its CPU minus its children's."""
        return max(0.0, self.cpu - self.child_cpu)


class Tracer:
    """In-memory spans recorded around calls into public functions.

    Spans nest through a per-thread stack; a span opened on a thread
    with an empty stack (the consumer side of an op) is linked to its
    op's root when the trace is written.  Busy time is thread CPU time,
    so a span that waits for the interpreter lock is not charged for it.

    ``enabled`` only gates the timing codecs: they sit in the one global
    registry, so an untraced instance running beside a traced one would
    otherwise record spans too.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.roots: Dict[int, Tuple[float, float]] = {}
        self.enabled = True
        self._local = threading.local()

    def stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, op: Optional[int] = None, tag: str = "") -> Span:
        return Span(self, name, op, tag)

    def root(self, op: int, start: float, end: float) -> None:
        """Record an op's whole submit → verified interval."""
        self.roots[op] = (start, end)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (count, self CPU seconds, total CPU seconds)``.

        Tagged spans are also totalled under ``name:tag``.
        """
        out: Dict[str, List[float]] = {}
        for span in self.spans:
            keys = (span.name, f"{span.name}:{span.tag}") if span.tag else (span.name,)
            for key in keys:
                entry = out.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += span.self_cpu
                entry[2] += span.cpu
        return {key: (int(c), s, t) for key, (c, s, t) in out.items()}

    def wrap(self, name: str, call, op_of=None):
        """``call`` with a span around it; ``op_of(*args)`` names its op."""

        def traced(*args):
            with self.span(name, op=op_of(*args) if op_of is not None else None):
                return call(*args)

        return traced

    def dump(self, path: str) -> None:
        """Write every op root and span through the repository's own
        JSON-lines trace writer (``ts`` = start, ``duration`` = end − start)."""
        span_ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            writer = TraceWriter(handle)
            for op, (start, end) in self.roots.items():
                writer.span("op", end - start, ts=start, id=f"op{op}", op=op, parent=None)
            for index, span in enumerate(self.spans):
                if span.parent is not None:
                    parent = span_ids[id(span.parent)]
                else:
                    parent = f"op{span.op}" if span.op in self.roots else None
                writer.span(
                    span.name, span.end - span.start, ts=span.start, id=index,
                    tag=span.tag, op=span.op, parent=parent, thread=span.thread,
                    cpu=span.cpu, self_cpu=span.self_cpu,
                )


def per(total: float, count: float, scale: float = 1.0) -> float:
    """``total / count * scale``; 0 when nothing was counted."""
    return total / count * scale if count else 0.0


#: Span-name prefix -> the share-table row it belongs to.  The 4 KB probe
#: is the sampler's own work (a cheaper probe is a sampler change), so it
#: is traced without a codec child and lands under ``selector``.
LAYER_OF_PREFIX = (
    ("codec.", "codec"),
    ("harness.", "harness"),
    ("sampler.", "selector"),
    ("policy.", "selector"),
    ("pipeline.", "selector"),
    ("fabric.", "fabric"),
    ("relay.", "fabric"),
    ("handler.", "message_path"),
    ("engine.", "message_path"),
    ("tcp.", "message_path"),
)
LAYERS = ("codec", "message_path", "fabric", "selector", "harness")


def layer_shares(tracer: Tracer, cpu_total: float, untraced_layer: str) -> Dict[str, float]:
    """Share of the traced pass's process CPU held by each layer.

    CPU no span covers is work inside ``src/repro`` threads the
    benchmark cannot bracket from outside (fabric shard loop, socket
    reader) plus the generator loop; ``untraced_layer`` names the row it
    belongs to on this workload.
    """
    busy = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        for prefix, layer in LAYER_OF_PREFIX:
            if span.name.startswith(prefix):
                busy[layer] += span.self_cpu
                break
    busy[untraced_layer] += max(0.0, cpu_total - sum(busy.values()))
    total = sum(busy.values())
    return {layer: per(seconds, total) for layer, seconds in busy.items()}


# -- timing codecs (registered through the paper's §3.2 extension point) ---------


def _traced_codec_class(cls: type, tracer: Tracer) -> type:
    class Traced(cls):  # type: ignore[misc, valid-type]
        def compress(self, data):
            if not tracer.enabled:
                return super().compress(data)
            with tracer.span("codec.compress", tag=self.name):
                return super().compress(data)

        def decompress(self, payload):
            if not tracer.enabled:
                return super().decompress(payload)
            with tracer.span("codec.decompress", tag=self.name):
                return super().decompress(payload)

    Traced.__name__ = cls.__name__
    return Traced


@contextlib.contextmanager
def traced_codecs(tracer: Tracer, names: Iterable[str]) -> Iterator[None]:
    """Swap registry codecs for span-recording subclasses of themselves.

    A subclass (not a wrapper) keeps constructor signature and
    ``isinstance`` behaviour, so ``codec_for(method, params)`` still
    builds parametrized instances.  The originals are restored on exit.
    """
    originals = {name: get_codec(name) for name in names}
    for name, codec in originals.items():
        register_codec(name, _traced_codec_class(type(codec), tracer))
    try:
        yield
    finally:
        for name, codec in originals.items():
            register_codec(name, lambda codec=codec: codec)


# -- segments and summaries -------------------------------------------------------


@dataclass
class Segment:
    """One timed repetition of one part of a workload's cycle, fully drained.

    A cycle is a fixed sequence of ``kinds`` parts (one op of each
    (corpus, method) pair, one replay of each configuration, or just one
    batch of identical ops); ``kind`` says which part this was.
    """

    ops: int
    failed: int
    app_bytes: int
    wire_bytes: int
    wall_s: float
    cpu_s: float
    latencies_s: List[float] = field(default_factory=list)
    kind: int = 0
    #: Host clock mode while this ran, against the reference (see measure()).
    slowdown: float = 1.0


_PROBE_DATA = bytes(range(256)) * 16

#: What :func:`host_probe` takes on the host the benchmark was sized on,
#: in its fast clock mode.  Corrected times are seconds on *that* machine.
PROBE_REFERENCE_S = 0.85e-3

#: A segment's host speed is read from this many probes on either side.
PROBE_WINDOW = 8


def host_probe() -> float:
    """Seconds a fixed slice of interpreter + zlib work takes right now."""
    started = time.perf_counter()
    for _ in range(20):
        zlib.crc32(zlib.compress(_PROBE_DATA, 1))
        sum(range(2000))
    return time.perf_counter() - started


def measure(workload, seconds: float, min_cycles: int = 3) -> List[Segment]:
    """Run whole cycles until ``seconds`` have passed (at least three).

    A host probe is taken before every segment and once after the last;
    each segment's ``slowdown`` is the fastest of the probes around it
    over the reference probe time.  This host has two clock modes a
    quarter apart that last seconds to minutes (probe 0.85 ms / 1.06 ms),
    and every workload here tracks them: on eight alternating 3 s runs
    fan-out goodput read 712-894 MB/s raw and 862-902 MB/s once divided
    through.  The fastest probe nearby is the mode; slower ones are bursts.
    """
    segments: List[Segment] = []
    probes: List[float] = []
    cycles = 0
    started = time.perf_counter()
    while cycles < min_cycles or time.perf_counter() - started < seconds:
        for _ in range(workload.kinds):
            probes.append(host_probe())
            segments.append(workload.segment())
        cycles += 1
    probes.append(host_probe())
    for index, segment in enumerate(segments):
        nearby = probes[max(0, index - PROBE_WINDOW) : index + PROBE_WINDOW + 2]
        segment.slowdown = min(nearby) / PROBE_REFERENCE_S
    return segments


def fast_decile(values: Iterable[float]) -> float:
    """The value a tenth of the way up from the fast (small) end.

    Interference on a shared host is one-sided and bursty: the same code
    never runs faster than the machine allows, and runs up to twice as
    slow for milliseconds at a time.  The median of a run's repetitions
    therefore tracks how busy the neighbours were (quartile spread
    15-20 % between runs here); the fast decile tracks the code (2-9 %).
    """
    ordered = sorted(values)
    return ordered[len(ordered) // 10]


def cycle_estimates(segments: Sequence[Segment], corrected: bool = True) -> Dict[str, float]:
    """Goodput, CPU cost and median latency of one cycle at the fast decile.

    Each part kind contributes the fast decile of its repetitions' wall
    and CPU seconds; a cycle's time is their sum.  Latency is the median
    over a cycle's ops, each part standing in with the fast decile of
    its repetitions' median op latency.  ``corrected`` divides every time
    by its segment's host slowdown first.
    """
    by_kind: Dict[int, List[Tuple[Segment, float]]] = {}
    for segment in segments:
        if segment.latencies_s:
            scale = 1.0 / segment.slowdown if corrected else 1.0
            by_kind.setdefault(segment.kind, []).append((segment, scale))
    wall = cpu = app_bytes = 0.0
    latencies: List[float] = []
    for repetitions in by_kind.values():
        wall += fast_decile(s.wall_s * k for s, k in repetitions)
        cpu += fast_decile(s.cpu_s * k for s, k in repetitions)
        app_bytes += statistics.median(s.app_bytes for s, _ in repetitions)
        latency = fast_decile(statistics.median(s.latencies_s) * k for s, k in repetitions)
        latencies += [latency] * repetitions[0][0].ops
    return {
        "goodput_mb_s": app_bytes / MB / wall,
        "cpu_s_per_mb": cpu / (app_bytes / MB),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def high_percentile(latencies: Sequence[float]) -> Tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with under twenty samples the
    median is all the sample supports.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = 50.0
    for pct in (90.0, 95.0, 99.0, 99.9, 99.99):
        if n * (1.0 - pct / 100.0) >= 10.0:
            chosen = pct
    index = min(n - 1, int(n * chosen / 100.0))
    return chosen, ordered[index]


def ops_and_failures(segments: Sequence[Segment]) -> Tuple[int, int]:
    return sum(s.ops for s in segments), sum(s.failed for s in segments)
