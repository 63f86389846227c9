"""Command-line interface: compress, analyze, and replay from the shell.

Usage (also available as ``python -m repro``)::

    repro compress  INPUT [-o OUT] [--method M]   # file -> envelope
    repro decompress INPUT [-o OUT]               # envelope -> file
    repro analyze   INPUT                         # entropy/repetition report
    repro methods                                 # list registered codecs
    repro replay    [--dataset D] [--link L] ...  # run a simulated stream
    repro figure    N                             # print a paper figure
    repro fuzz      [--seed S] [--budget 30s] ... # fuzz the decode surfaces
    repro gate      NAME...                       # run CI gates (bench-smoke, ...)

``compress --method adaptive`` profiles a sample of the input (entropy +
repetition, §4.1) and picks the recommended method.  Compressed output is
wrapped in a tiny self-describing envelope so ``decompress`` knows which
codec to apply — the CLI equivalent of the middleware's method attribute.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import List, Optional

from .compression.base import ACCEPTABLE_DECODE_ERRORS, CodecError, CorruptStreamError
from .compression.registry import available_codecs, get_codec
from .compression.varint import read_canonical_varint, write_varint
from .data.analysis import profile, recommended_methods
from .netsim.link import EXTRA_LINKS, PAPER_LINKS

_ENVELOPE_MAGIC = b"RPRZ"
_LINKS = [*PAPER_LINKS, *EXTRA_LINKS]


def _wrap(method: str, payload: bytes) -> bytes:
    name = method.encode()
    out = bytearray(_ENVELOPE_MAGIC)
    write_varint(out, len(name))
    out += name
    out += payload
    return bytes(out)


def _unwrap(data: bytes) -> tuple:
    if data[: len(_ENVELOPE_MAGIC)] != _ENVELOPE_MAGIC:
        raise SystemExit("error: input is not a repro envelope")
    try:
        length, offset = read_canonical_varint(data, len(_ENVELOPE_MAGIC))
        if offset + length > len(data):
            raise CorruptStreamError("codec name runs past the end of the file")
        method = bytes(data[offset : offset + length]).decode()
        get_codec(method)
    except (CodecError, UnicodeDecodeError) as exc:
        raise SystemExit(f"error: corrupt envelope ({exc})") from exc
    return method, data[offset + length :]


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path} ({exc.strerror})") from exc


def _pick_method(data: bytes) -> str:
    sample = data[: 64 * 1024]
    recommendations = recommended_methods(profile(sample))
    return recommendations[0]


def cmd_compress(args: argparse.Namespace) -> int:
    data = _read(args.input)
    method = args.method
    if method == "adaptive":
        method = _pick_method(data)
    try:
        codec = get_codec(method)
    except CodecError as exc:
        raise SystemExit(f"error: {exc}") from exc
    payload = codec.compress(data)
    out_path = Path(args.output or args.input + ".rprz")
    out_path.write_bytes(_wrap(method, payload))
    ratio = len(payload) / len(data) if data else 1.0
    print(
        f"{args.input}: {len(data)} -> {len(payload)} bytes "
        f"({100 * ratio:.1f}%) via {method} -> {out_path}"
    )
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    method, payload = _unwrap(_read(args.input))
    try:
        data = get_codec(method).decompress(payload)
    except ACCEPTABLE_DECODE_ERRORS as exc:
        raise SystemExit(f"error: corrupt payload ({exc})") from exc
    default = args.input[:-5] if args.input.endswith(".rprz") else args.input + ".out"
    out_path = Path(args.output or default)
    out_path.write_bytes(data)
    print(f"{args.input}: {len(payload)} -> {len(data)} bytes via {method} -> {out_path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    data = _read(args.input)
    sample = data[: 256 * 1024]
    report = profile(sample)
    print(f"file           : {args.input} ({len(data)} bytes)")
    print(f"entropy        : {report.entropy_bits_per_byte:.2f} bits/byte")
    print(f"repetition     : {report.repetition:.2f} (repeated 4-gram fraction)")
    print(f"characteristic : {report.characteristic}")
    print(f"recommended    : {', '.join(recommended_methods(report))}")
    if args.ratios:
        print("measured ratios (on the sample):")
        for method in ("huffman", "lempel-ziv", "lzw", "burrows-wheeler"):
            codec = get_codec(method)
            print(f"  {method:16s} {100 * codec.ratio(sample):5.1f}%")
    return 0


def cmd_methods(_args: argparse.Namespace) -> int:
    for name in available_codecs():
        codec = get_codec(name)
        print(f"{name:26s} family={codec.family}")
    return 0


def _config(cls, args: argparse.Namespace, **rest):
    """``cls`` built from the namespace by field: each option's ``dest`` is
    the config field it sets."""
    options = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**options, **rest)


def _replay_result(args: argparse.Namespace, observers=None, registry=None):
    from .experiments.config import ReplayConfig
    from .experiments.replay import dataset_blocks, run_replay

    plan = None
    if getattr(args, "faults", None):
        from .netsim.faults import FaultPlan

        try:
            plan = FaultPlan.from_json(_read(args.faults).decode())
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"error: bad fault plan {args.faults} ({exc})") from exc
    config = _config(ReplayConfig, args, fault_plan=plan)
    blocks = dataset_blocks(args.dataset, config)
    return run_replay(blocks, config, observers=observers, registry=registry), plan


def _write_replay_trace(path: str, args: argparse.Namespace, result) -> None:
    """Dump one JSON-lines trace record per block (virtual timestamps)."""
    from .obs.trace import TraceWriter

    with open(path, "w", encoding="utf-8") as sink, TraceWriter(sink) as writer:
        for r in result.records:
            writer.event(
                "block",
                ts=r.start_time,
                index=r.index,
                method=r.method,
                original_size=r.original_size,
                compressed_size=r.compressed_size,
                compression_seconds=r.compression_time,
                send_seconds=r.send_time,
                decompression_seconds=r.decompression_time,
                connections=r.connections,
            )
        writer.span(
            "replay",
            duration=result.total_time,
            ts=0.0,
            dataset=args.dataset,
            link=args.link,
            blocks=len(result.records),
        )


def cmd_replay(args: argparse.Namespace) -> int:
    result, plan = _replay_result(args)
    if args.trace:
        _write_replay_trace(args.trace, args, result)
        print(f"trace -> {args.trace}")
    print(
        f"dataset={args.dataset} link={args.link} blocks={args.block_count} "
        f"policy={args.policy}"
    )
    for key, value in result.summary().items():
        print(f"  {key:26s} {value:12.3f}")
    print(f"  methods: {result.method_counts()}")
    if plan is not None:
        injected = {k: v for k, v in plan.counts.items() if v}
        print(
            f"  faults: plan={plan.name or args.faults} seed={plan.seed} "
            f"injected={injected or 'none'} (recovery charged to virtual time)"
        )
    if args.series:
        previous = None
        for t, code in result.method_series():
            if code != previous:
                print(f"  t={t:7.1f}s method -> {code}")
                previous = code
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from .experiments.report import FIGURE_SECTIONS

    section = FIGURE_SECTIONS.get(args.number)
    if section is None:
        raise SystemExit(
            "error: figures 1-7 print directly; use `repro replay` for "
            "figures 8-12 (add --series)"
        )
    print("\n".join(section()))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a replay with telemetry attached and dump the registry as JSON."""
    from .obs.block import BlockTelemetry
    from .obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    telemetry = BlockTelemetry(registry=registry, channel=args.dataset)
    result, _ = _replay_result(args, observers=[telemetry], registry=registry)
    if args.trace:
        _write_replay_trace(args.trace, args, result)
    print(registry.to_json(indent=2))
    return 0


def cmd_fanout(args: argparse.Namespace) -> int:
    """Run the fan-out load scenario through the event fabric."""
    import json
    from dataclasses import asdict

    from .experiments.report import _table
    from .fabric.loadgen import FanoutConfig, run_fanout

    result = run_fanout(_config(FanoutConfig, args))
    if args.json:
        print(json.dumps({**result.summary(), **asdict(result)}, indent=2))
        return 0 if result.crc_ok else 1
    print(
        f"fan-out: {result.subscribers} subscribers, {result.channels_used} channels, "
        f"{result.events_published} events published, {result.deliveries} deliveries "
        f"(ratio {result.fanout_ratio:.1f})"
    )
    paths = _table(
        ["path", "virtual s", "codec runs", "deliveries/s"],
        [
            [
                path,
                f"{getattr(result, path + '_seconds'):.3f}",
                str(getattr(result, path + "_compressions")),
                f"{getattr(result, path + '_events_per_second'):,.0f}",
            ]
            for path in ("fabric", "baseline")
        ],
    )
    totals = {
        "speedup": f"{result.speedup:.1f}x",
        "cache hit rate": f"{result.cache_hit_rate:.1%}",
        "hits": result.cache_hits,
        "misses": result.cache_misses,
        "evictions": result.cache_evictions,
        "shard events": result.shard_events,
        "jumbo flushes": result.batches_emitted,
        "batched frames": result.batched_frames,
    }
    print("\n".join(paths + _table(list(totals), [[str(v) for v in totals.values()]])))
    print(f"wire CRC32 {result.wire_crc32:#010x}  byte-identical to serial path: {result.crc_ok}")
    return 0 if result.crc_ok else 1


def cmd_placement(args: argparse.Namespace) -> int:
    """Run the DTSchedule-style placement time-breakdown matrix."""
    import json
    from dataclasses import asdict

    from .experiments.placement import (
        LINK_CLASSES,
        UPSTREAM_LINK,
        placement_breakdown,
        placement_failures,
    )
    from .experiments.report import _table

    links = tuple(args.links) if args.links else LINK_CLASSES
    cells = placement_breakdown(
        total_blocks=args.blocks,
        block_size=args.block_size,
        links=links,
        interference=args.interference,
        workers=args.workers,
        queue_depth=args.queue_depth,
        seed=args.seed,
    )
    failures = placement_failures(cells)
    if args.json:
        payload = {
            "blocks": args.blocks,
            "block_size": args.block_size,
            "interference": args.interference,
            "upstream": UPSTREAM_LINK,
            "cells": [asdict(c) for c in cells],
            "failures": failures,
            "ok": not failures,
        }
        print(json.dumps(payload, indent=2))
        return 0 if not failures else 1
    print(
        f"placement breakdown: {args.blocks} blocks x {args.block_size} bytes, "
        f"{UPSTREAM_LINK} upstream, interference {args.interference:.2f}"
    )
    rows = [
        [
            c.link,
            c.mode,
            f"{c.compress_seconds:.3f}",
            f"{c.wire_seconds:.3f}",
            f"{c.relay_seconds:.3f}",
            f"{c.decompress_seconds:.3f}",
            f"{c.makespan:.3f}",
            ",".join(f"{k}:{v}" for k, v in sorted(c.placements.items())),
        ]
        for c in cells  # already in (link, arrangement) order
    ]
    header = ["link", "mode", "compress", "wire", "relay", "decomp", "makespan", "placements"]
    print("\n".join(_table(header, rows)))
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(
        "ok: auto <= always-producer on every link class; "
        "relay bytes CRC-identical to producer-side compression"
    )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .verify.fuzz import Fuzzer, load_corpus, replay_corpus, write_corpus

    if args.replay:
        entries = load_corpus(args.replay)
        if not entries:
            print(f"{args.replay}: no crash entries")
            return 0
        still_failing = 0
        for entry, fails, detail in replay_corpus(entries):
            status = "STILL-FAILING" if fails else "ok"
            print(f"{entry.id}  {entry.target:24s} {entry.error_type:22s} {status}  {detail}")
            still_failing += fails
        print(f"{len(entries)} entries, {still_failing} still failing")
        return 1 if still_failing else 0

    report = Fuzzer(seed=args.seed).run(
        iterations=args.iterations, budget_seconds=args.budget
    )
    print(report.describe())
    for crash in report.crashes:
        print(
            f"CRASH {crash.id} target={crash.target} "
            f"{crash.error_type}: {crash.error_message} ({len(crash.data)} bytes)"
        )
    if args.corpus_out and report.crashes:
        write_corpus(args.corpus_out, report.crashes)
        print(f"crash corpus -> {args.corpus_out}")
    return 1 if report.crashes else 0


def cmd_gate(args: argparse.Namespace) -> int:
    """Run CI gates: the one runner over the declarative gate table."""
    from .verify.gates import GATES, run_gates

    return run_gates(
        args.names,
        GATES,
        print,
        baseline=args.baseline,
        write_baseline=args.write_baseline,
        artifacts=args.artifacts,
        budget_seconds=args.budget,
    )


def cmd_report(args: argparse.Namespace) -> int:
    from .experiments.config import HEADLINE_CONFIG, ReplayConfig
    from .experiments.report import generate_report

    replay = _config(ReplayConfig, args)
    headline = replace(HEADLINE_CONFIG, block_count=max(16, args.block_count))
    document = generate_report(replay_config=replay, headline_config=headline)
    if args.trace:
        from .experiments.endtoend import headline_comparison
        from .obs.trace import TraceWriter

        with open(args.trace, "w", encoding="utf-8") as sink, TraceWriter(sink) as writer:
            for row in headline_comparison(config=headline):
                writer.span(
                    "headline",
                    duration=row.total_seconds,
                    dataset=row.dataset,
                    policy=row.policy,
                    compression_fraction=row.compression_fraction,
                    overall_ratio=row.overall_ratio,
                )
        print(f"trace -> {args.trace}")
    if args.output:
        Path(args.output).write_text(document)
        print(f"wrote {args.output} ({len(document)} bytes)")
    else:
        print(document)
    return 0


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative(text: str) -> float:
    value = float(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {value}")
    return value


def _budget(text: str) -> float:
    """``--budget`` values; imported lazily to keep ``repro.verify`` off startup."""
    from .verify.fuzz import parse_budget

    return parse_budget(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Configurable compression for end-to-end data exchange (ICDCS 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a file into a self-describing envelope")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument(
        "--method",
        default="adaptive",
        help="codec name, or 'adaptive' to pick from a data profile (default)",
    )
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decompress a repro envelope")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("analyze", help="entropy/repetition profile and method advice")
    p.add_argument("input")
    p.add_argument("--ratios", action="store_true", help="also measure codec ratios")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("methods", help="list registered codecs")
    p.set_defaults(func=cmd_methods)

    def add_replay_options(p: argparse.ArgumentParser) -> None:
        datasets = ["commercial", "molecular", "logs", "timeseries"]
        p.add_argument("--dataset", choices=datasets, default="commercial")
        p.add_argument(
            "--source",
            dest="dataset",
            choices=datasets,
            help="alias for --dataset (structured workloads: logs, timeseries)",
        )
        p.add_argument("--link", choices=list(PAPER_LINKS), default="100mbit")
        p.add_argument("--blocks", dest="block_count", type=int, default=64)
        p.add_argument(
            "--interval",
            dest="production_interval",
            type=float,
            default=1.25,
            help="seconds between blocks (0 = bulk)",
        )
        p.add_argument("--trace-offset", type=float, default=0.0)
        p.add_argument("--pipelined", action="store_true")
        p.add_argument(
            "--policy",
            choices=["table", "bicriteria"],
            default="table",
            help="method selector: the paper's decision table (default) or "
            "the bicriteria Pareto optimizer",
        )
        p.add_argument(
            "--space-budget",
            type=float,
            default=1.0,
            help="bicriteria only: modeled compressed/original ratio cap (default 1.0)",
        )
        p.add_argument(
            "--placement",
            choices=["producer", "raw", "consumer", "auto"],
            default="producer",
            help="where compression runs: the paper's producer side "
            "(default), ship raw, offload to a relay (consumer), or "
            "break-even auto scheduling per block",
        )
        p.add_argument(
            "--interference",
            type=_non_negative,
            default=0.0,
            help="producer-side I/O-interference fraction for placement "
            "pricing (DTSchedule measures ~0.15)",
        )
        p.add_argument(
            "--downstream-factor",
            type=float,
            default=None,
            help="relay topology for consumer/auto placement: downstream "
            "hop as a multiple of the link's sending time",
        )
        p.add_argument("--trace", metavar="PATH", help="write a JSON-lines block trace to PATH")
        p.add_argument(
            "--faults",
            metavar="PLAN.json",
            help="inject faults from a seeded FaultPlan JSON file; the time-only replay "
            "link acts on drop/corrupt/delay (recovery costs land in the simulated "
            "times) and only counts duplicate/reorder, which cost a transfer no time",
        )

    p = sub.add_parser("replay", help="run a simulated adaptive stream")
    add_replay_options(p)
    p.add_argument("--series", action="store_true", help="print method transitions")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("stats", help="run a replay with telemetry and dump the metrics registry as JSON")
    add_replay_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fuzz", help="fuzz the decode surfaces (deterministic per seed)")
    p.add_argument("--seed", type=int, default=0, help="mutation schedule seed")
    p.add_argument("--iterations", type=_positive, default=2000, help="schedule length")
    p.add_argument(
        "--budget",
        metavar="30s",
        type=_budget,
        help="wall-clock cap (e.g. 30s, 2m); only truncates the schedule",
    )
    p.add_argument(
        "--corpus-out",
        metavar="PATH",
        help="write shrunken crash reproducers to a JSONL corpus",
    )
    p.add_argument(
        "--replay",
        metavar="PATH",
        help="replay a JSONL crash corpus instead of fuzzing; exits 1 if any entry still fails",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "gate",
        help="run CI gates (bench-smoke, chaos, placement, fuzz); exit 0 = every "
        "assertion held, 1 = some did not, 2 = the gate could not run",
    )
    p.add_argument("names", nargs="*", metavar="NAME", help="gates to run, in order")
    p.add_argument(
        "--baseline",
        help="bench-smoke: report to gate against (default: BENCH_baseline.json)",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="bench-smoke: write the candidate as the new baseline instead of gating",
    )
    p.add_argument(
        "--budget",
        metavar="30s",
        type=_budget,
        default="30s",
        help="fuzz: wall cap of the mutation stage, e.g. 30s or 2m (default %(default)s)",
    )
    p.add_argument(
        "--artifacts",
        metavar="DIR",
        default=".",
        help="where traces, the candidate report and crash corpora land (default: .)",
    )
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser(
        "fanout",
        help="run the fan-out load scenario (sharded fabric vs per-subscriber baseline)",
    )
    p.add_argument("--subscribers", type=_positive, default=1024, help="simulated subscriber count")
    p.add_argument("--channels", type=_positive, default=64, help="channel population (Zipf-skewed)")
    p.add_argument("--events", type=_positive, default=32, help="events published per channel")
    p.add_argument("--event-size", type=int, default=8 * 1024, help="payload bytes per event")
    p.add_argument("--shards", type=int, default=4, help="fabric shard count")
    p.add_argument(
        "--zipf", dest="zipf_exponent", type=float, default=1.1, help="Zipf skew exponent"
    )
    p.add_argument("--seed", type=int, default=2004, help="scenario seed")
    p.add_argument("--link", choices=_LINKS, default="1gbit", help="netsim link profile")
    p.add_argument(
        "--batch",
        action="store_true",
        help="coalesce per-subscriber frames into jumbo super-frames",
    )
    p.add_argument(
        "--batch-frames",
        type=int,
        default=8,
        help="frames per jumbo flush when --batch is on",
    )
    p.add_argument("--json", action="store_true", help="emit the result as JSON")
    p.set_defaults(func=cmd_fanout)

    p = sub.add_parser(
        "placement",
        help="run the placement time-breakdown matrix (compress/wire/relay/"
        "decompress per link class and arrangement)",
    )
    p.add_argument("--blocks", type=_positive, default=16, help="blocks per cell")
    p.add_argument("--block-size", type=_positive, default=128 * 1024, help="bytes per block")
    p.add_argument(
        "--interference",
        type=_non_negative,
        default=0.15,
        help="producer-side I/O-interference fraction (DTSchedule ~0.15)",
    )
    p.add_argument("--workers", type=_positive, default=1, help="producer/relay pool width")
    p.add_argument("--queue-depth", type=_positive, default=8, help="producer send-queue depth")
    p.add_argument("--seed", type=int, default=2004, help="commercial stream seed")
    p.add_argument(
        "--links",
        nargs="*",
        choices=_LINKS,
        default=None,
        metavar="LINK",
        help="link classes to sweep (default: the paper's four)",
    )
    p.add_argument("--json", action="store_true", help="emit the matrix as JSON")
    p.set_defaults(func=cmd_placement)

    p = sub.add_parser("figure", help="print a paper figure (1-7)")
    p.add_argument("number", type=int)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("report", help="regenerate the full reproduction report")
    p.add_argument("-o", "--output", help="write markdown to a file instead of stdout")
    p.add_argument(
        "--blocks", dest="block_count", type=int, default=64, help="replay length (blocks)"
    )
    p.add_argument("--trace", metavar="PATH", help="write a JSON-lines headline trace to PATH")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; standard CLI etiquette.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
