"""``adaptive_fastlink``: what the §2.5 loop costs when the answer is "don't".

``AdaptivePipeline.run`` in modeled-cost mode (decisions come from the
calibrated cost table, so they repeat exactly; blocks are really
compressed when a method is chosen) replays the four corpora under three
selector dialects on the two fast links.  On these links the selector
correctly ships raw, so the wall time left is the price of deciding:
the 4 KB probe, ``AdaptivePolicy.choose``, the monitor and the loop's
bookkeeping.  An op is one block through the pipeline.
"""

from __future__ import annotations

import contextlib
import time
import traceback
import zlib
from typing import Dict, List, Optional, Tuple

from repro.compression.registry import get_codec
from repro.core.bicriteria import codec_for
from repro.core.monitor import ReducingSpeedMonitor
from repro.core.pipeline import AdaptivePipeline, StreamResult
from repro.core.policy import AdaptivePolicy
from repro.core.sampler import LzSampler
from repro.netsim.cpu import DEFAULT_COSTS, SUN_FIRE
from repro.netsim.link import make_link

from harness import Segment, Tracer, per, traced_codecs
from inputs import CORPORA, all_corpora

BLOCK_SIZE = 128 * 1024
BLOCKS_PER_REPLAY = 16
LINKS = ("1gbit", "100mbit")
DIALECTS = ("table", "bicriteria", "placement")
#: Codecs a selector may choose here; traced so chosen work shows as codec time.
SELECTABLE = ("huffman", "lempel-ziv", "burrows-wheeler")


def make_policy(dialect: str) -> AdaptivePolicy:
    """The three dialects, priced on the same substrate the replay uses.

    ``native=False`` pins the bicriteria grid to the pure-Python methods,
    so hosts with and without the zstd/lz4 bindings decide identically.
    """
    if dialect == "table":
        return AdaptivePolicy()
    costed = dict(policy="bicriteria", cost_model=DEFAULT_COSTS, cpu=SUN_FIRE, native=False)
    if dialect == "bicriteria":
        return AdaptivePolicy(**costed)
    return AdaptivePolicy(placement="auto", interference=0.15, downstream_factor=1.0, **costed)


class _TracedPolicy:
    def __init__(self, tracer: Tracer, dialect: str) -> None:
        self.tracer = tracer
        self.dialect = dialect
        self.inner = make_policy(dialect)

    def choose(self, block_size, sending_time, monitor, sample):
        with self.tracer.span("policy.choose", tag=self.dialect):
            return self.inner.choose(block_size, sending_time, monitor, sample)


class _TracedSampler(LzSampler):
    def __init__(self, tracer: Tracer, codec) -> None:
        super().__init__(codec=codec, cost_model=DEFAULT_COSTS, cpu=SUN_FIRE)
        self.tracer = tracer

    def sample(self, next_block):
        with self.tracer.span("sampler.sample"):
            return super().sample(next_block)


class AdaptiveFastlink:
    name = "adaptive_fastlink"
    #: The replay runs inside a pipeline span; what is left is the loop here.
    untraced_layer = "harness"

    def __init__(self, seed: int, scale: float = 1.0, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.seed = seed
        count = max(4, int(BLOCKS_PER_REPLAY * scale))
        self.blocks = all_corpora(seed, BLOCK_SIZE, count)
        self.replays = [(c, d, l) for l in LINKS for d in DIALECTS for c in CORPORA]
        self.kinds = len(self.replays)
        self._next_replay = 0
        self.block_crcs = {c: [zlib.crc32(b) for b in self.blocks[c]] for c in CORPORA}
        #: (corpus, records) of every replay run, for the post-phase check.
        self.results: List[Tuple[str, StreamResult]] = []
        self.modeled_s: Dict[int, float] = {}  # replay kind -> StreamResult.total_time
        self._stamps: List[float] = []
        # The probe is the sampler's own work: its codec is resolved
        # before the timing codecs are registered, so it has no codec child.
        self._probe_codec = get_codec("lempel-ziv")
        self._cleanup = contextlib.ExitStack()
        if tracer is not None:
            self._cleanup.enter_context(traced_codecs(tracer, SELECTABLE))

    def close(self) -> None:
        self._cleanup.close()

    def _observe(self, stats) -> None:
        self._stamps.append(time.perf_counter())

    def _pipeline(self, dialect: str) -> AdaptivePipeline:
        tracer = self.tracer
        if tracer is None:
            return AdaptivePipeline(
                policy=make_policy(dialect),
                cost_model=DEFAULT_COSTS,
                cpu=SUN_FIRE,
                observers=[self._observe],
            )
        return AdaptivePipeline(
            policy=_TracedPolicy(tracer, dialect),
            sampler=_TracedSampler(tracer, self._probe_codec),
            cost_model=DEFAULT_COSTS,
            cpu=SUN_FIRE,
            observers=[self._observe],
        )

    def warm_up(self) -> None:
        """Every (corpus, dialect, link) path once, on a quarter of the blocks."""
        quarter = max(2, len(self.blocks[CORPORA[0]]) // 4)
        for _ in self.replays:
            self.segment(blocks_per_replay=quarter)
        self.results.clear()

    def segment(self, blocks_per_replay: Optional[int] = None) -> Segment:
        """The cycle's next replay; its ops are the blocks it streams."""
        kind = self._next_replay
        self._next_replay = (kind + 1) % self.kinds
        corpus, dialect, link_name = self.replays[kind]
        blocks = self.blocks[corpus][:blocks_per_replay]
        pipeline = self._pipeline(dialect)
        link = make_link(link_name, seed=self.seed)
        cpu_before = time.process_time()
        self._stamps = [time.perf_counter()]
        try:
            if self.tracer is None:
                result = pipeline.run(blocks, link)
            else:
                with self.tracer.span("pipeline.run", op=len(self.results), tag=dialect):
                    result = pipeline.run(blocks, link)
        except Exception:
            traceback.print_exc()
            return Segment(ops=len(blocks), failed=len(blocks), app_bytes=0, wire_bytes=0,
                           wall_s=0.0, cpu_s=0.0, kind=kind)
        stamps = self._stamps
        wall = time.perf_counter() - stamps[0]
        cpu = time.process_time() - cpu_before
        self.results.append((corpus, result))
        self.modeled_s[kind] = result.total_time
        return Segment(
            ops=len(blocks),
            failed=0,
            app_bytes=result.total_original_bytes,
            wire_bytes=result.total_compressed_bytes,
            wall_s=wall,
            cpu_s=cpu,
            latencies_s=[b - a for a, b in zip(stamps, stamps[1:])],
            kind=kind,
        )

    def verify_after(self) -> int:
        """Re-derive every record's payload CRC and round-trip the payload.

        Runs after the timed phase: the pipeline keeps no payloads, so
        each record's chosen codec is applied to the generated block
        again; the wire CRC must match and the payload must decode back
        to the block.  Modeled-cost replays repeat exactly, so each
        distinct (block, method, params) is derived once.
        """
        derived: Dict[Tuple[str, int, str, tuple], Tuple[int, bool]] = {}
        failed = 0
        for corpus, result in self.results:
            blocks = self.blocks[corpus]
            if len(result.records) != len(blocks):
                failed += len(blocks)
                continue
            for record in result.records:
                key = (corpus, record.index, record.method, record.params)
                if key not in derived:
                    block = blocks[record.index]
                    if record.method == "none":
                        derived[key] = (self.block_crcs[corpus][record.index], True)
                    else:
                        codec = codec_for(record.method, record.params)
                        payload = codec.compress(block)
                        derived[key] = (
                            zlib.crc32(payload) & 0xFFFFFFFF,
                            codec.decompress(payload) == block,
                        )
                crc, round_trips = derived[key]
                if crc != record.payload_crc32 or not round_trips:
                    failed += 1
        return failed

    # -- per-layer ledger (traced pass only) -----------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        totals = self.tracer.totals()
        zero = (0, 0.0, 0.0)
        samples, _, sample_cpu = totals.get("sampler.sample", zero)
        _, run_self, _ = totals.get("pipeline.run", zero)
        records = [r for _, result in self.results for r in result.records]
        compressed = sum(1 for r in records if r.method != "none")
        metrics = {
            "sampler.sample_ms_per_block": per(sample_cpu, len(records), 1e3),
            "sampler.samples": samples,
            "monitor.observe_us": staged_monitor_probe(),
            "pipeline.bookkeeping_us_per_block": per(run_self, len(records), 1e6),
            "pipeline.modeled_exchange_s": sum(self.modeled_s.values()),
            "selector.compressed_share": per(compressed, len(records)),
        }
        for dialect in DIALECTS:
            calls, _, cpu = totals.get(f"policy.choose:{dialect}", zero)
            metrics[f"policy.{dialect}.choose_us"] = per(cpu, calls, 1e6)
        return metrics


def staged_monitor_probe(calls: int = 20000) -> float:
    """``ReducingSpeedMonitor.observe_raw`` alone: the pipeline builds its
    monitor inside ``run``, so it cannot be bracketed there."""
    monitor = ReducingSpeedMonitor()
    started = time.perf_counter()
    for i in range(calls):
        monitor.observe_raw("lempel-ziv", 1000 + i, 0.001)
    return per(time.perf_counter() - started, calls, 1e6)
