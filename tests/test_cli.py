"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _pick_method, _unwrap, _wrap, main
from repro.data.commercial import CommercialDataGenerator
from repro.data.molecular import MolecularDataGenerator


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "sample.xml"
    path.write_bytes(CommercialDataGenerator(seed=31).xml_block(32 * 1024))
    return path


class TestEnvelope:
    def test_roundtrip(self):
        method, payload = _unwrap(_wrap("huffman", b"\x00\x01payload"))
        assert method == "huffman"
        assert payload == b"\x00\x01payload"

    def test_bad_magic_exits(self):
        with pytest.raises(SystemExit):
            _unwrap(b"NOPE rest")

    def test_overlong_varint_length_exits(self):
        # \x87\x00 is a non-canonical two-byte encoding of 7.
        with pytest.raises(SystemExit, match="corrupt envelope"):
            _unwrap(b"RPRZ" + b"\x87\x00" + b"huffmanpayload")


class TestPickMethod:
    def test_repetitive_data_picks_dictionary(self):
        data = CommercialDataGenerator(seed=1).xml_block(32 * 1024)
        assert _pick_method(data) in ("burrows-wheeler", "lempel-ziv")

    def test_random_data_picks_none(self):
        import random

        rng = random.Random(3)
        data = bytes(rng.getrandbits(8) for _ in range(16 * 1024))
        assert _pick_method(data) == "none"


class TestCompressDecompress:
    def test_roundtrip_adaptive(self, sample_file, tmp_path, capsys):
        out = tmp_path / "c.rprz"
        restored = tmp_path / "restored.xml"
        assert main(["compress", str(sample_file), "-o", str(out)]) == 0
        assert main(["decompress", str(out), "-o", str(restored)]) == 0
        assert restored.read_bytes() == sample_file.read_bytes()
        stdout = capsys.readouterr().out
        assert "via" in stdout

    def test_roundtrip_explicit_method(self, sample_file, tmp_path):
        out = tmp_path / "c.rprz"
        restored = tmp_path / "r.xml"
        main(["compress", str(sample_file), "-o", str(out), "--method", "lzw"])
        main(["decompress", str(out), "-o", str(restored)])
        assert restored.read_bytes() == sample_file.read_bytes()

    def test_default_output_names(self, sample_file, tmp_path):
        main(["compress", str(sample_file)])
        envelope = tmp_path / "sample.xml.rprz"
        assert envelope.exists()
        # decompressing in place restores the default name
        target = tmp_path / "sample.xml"
        target.unlink()
        main(["decompress", str(envelope)])
        assert target.exists()

    @pytest.mark.parametrize(
        "envelope, complaint",
        [
            (b"RPRZ\x03\xff\xfe\xfdxyz", "corrupt envelope"),  # name is not UTF-8
            (b"RPRZ\x7fhuff", "corrupt envelope"),  # name longer than the file
            (b"RPRZ\x04huffxx", "unknown codec"),  # name not registered
            (b"RPRZ\x07huffmanGARBAGE", "corrupt payload"),
        ],
    )
    def test_corrupt_envelope_is_an_error_not_a_traceback(self, envelope, complaint, tmp_path):
        bad = tmp_path / "bad.rprz"
        bad.write_bytes(envelope)
        with pytest.raises(SystemExit, match=f"error: .*{complaint}") as caught:
            main(["decompress", str(bad)])
        assert isinstance(caught.value.code, str)  # a message: exit status 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.rprz"]

    def test_unknown_method_raises(self, sample_file, tmp_path):
        with pytest.raises(SystemExit, match="error: unknown codec: 'zpaq'"):
            main(["compress", str(sample_file), "--method", "zpaq"])
        assert sorted(path.name for path in tmp_path.iterdir()) == ["sample.xml"]


#: argv -> what the error names; run from a directory holding only present.txt.
BAD_INPUT = [
    (["fanout", "--link", "foo"], "invalid choice: 'foo'"),
    (["placement", "--links", "foo"], "invalid choice: 'foo'"),
    (["fanout", "--subscribers", "0"], "must be a positive integer"),
    (["placement", "--blocks", "0"], "must be a positive integer"),
    (["replay", "--faults", "missing.json"], "cannot read missing.json"),
    (["compress", "missing-file"], "cannot read missing-file"),
    (["compress", "present.txt", "--method", "zpaq"], "unknown codec"),
    (["fuzz", "--iterations", "-5"], "must be a positive integer"),
]


@pytest.mark.parametrize("argv, complaint", BAD_INPUT, ids=[" ".join(a) for a, _ in BAD_INPUT])
def test_bad_input_is_an_error_not_a_traceback(argv, complaint, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "present.txt").write_bytes(b"payload")
    with pytest.raises(SystemExit) as caught:
        main(argv)
    code = caught.value.code
    # Run-time input errors exit 1 with the message as the code; parse
    # errors exit 2 through argparse, with the message on stderr.
    message = code if isinstance(code, str) else capsys.readouterr().err
    assert code not in (0, None)
    assert "error: " in message and complaint in message
    assert sorted(path.name for path in tmp_path.iterdir()) == ["present.txt"]


class TestAnalyze:
    def test_reports_profile(self, sample_file, capsys):
        assert main(["analyze", str(sample_file)]) == 0
        out = capsys.readouterr().out
        assert "entropy" in out
        assert "recommended" in out

    def test_ratios_flag(self, sample_file, capsys):
        main(["analyze", str(sample_file), "--ratios"])
        out = capsys.readouterr().out
        assert "burrows-wheeler" in out


class TestMethods:
    def test_lists_registered(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("huffman", "lempel-ziv", "burrows-wheeler", "lzw"):
            assert name in out


class TestReplay:
    def test_commercial_replay_summary(self, capsys):
        assert main(["replay", "--blocks", "8", "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert "total_time_s" in out
        assert "methods:" in out

    def test_series_flag(self, capsys):
        main(["replay", "--blocks", "8", "--series"])
        out = capsys.readouterr().out
        assert "method ->" in out

    def test_molecular_dataset(self, capsys):
        assert main(["replay", "--dataset", "molecular", "--blocks", "6"]) == 0
        assert "molecular" in capsys.readouterr().out

    def test_faults_flag_injects_and_reports(self, tmp_path, capsys):
        from repro.netsim.faults import FaultPlan, FaultRule

        plan_path = tmp_path / "plan.json"
        FaultPlan(
            [FaultRule(kind="drop", index=2), FaultRule(kind="delay", index=4, delay=0.5)],
            seed=11,
            name="cli-smoke",
        ).dump(str(plan_path))
        assert main(
            ["replay", "--blocks", "8", "--interval", "0", "--faults", str(plan_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "faults: plan=cli-smoke seed=11" in out
        assert "'drop': 1" in out
        assert "'delay': 1" in out

    def test_faults_flag_is_deterministic(self, tmp_path, capsys):
        from repro.netsim.faults import FaultPlan, FaultRule

        plan_path = tmp_path / "plan.json"
        FaultPlan([FaultRule(kind="drop", probability=0.3)], seed=5).dump(str(plan_path))
        args = ["replay", "--blocks", "8", "--interval", "0", "--faults", str(plan_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_trace_writes_one_event_per_block(self, tmp_path, capsys):
        from repro.obs import read_trace

        path = tmp_path / "replay.jsonl"
        assert main(["replay", "--blocks", "8", "--trace", str(path)]) == 0
        records = list(read_trace(path))
        blocks = [r for r in records if r["name"] == "block"]
        spans = [r for r in records if r["type"] == "span"]
        assert len(blocks) == 8
        assert len(spans) == 1
        assert spans[0]["name"] == "replay"
        for record in blocks:
            assert record["method"]
            assert record["original_size"] > 0


class TestStats:
    def test_dumps_registry_json(self, capsys):
        import json

        assert main(["stats", "--blocks", "8", "--interval", "0"]) == 0
        registry = json.loads(capsys.readouterr().out)
        assert registry["repro_blocks_total"]["kind"] == "counter"
        series = registry["repro_blocks_total"]["series"]
        assert sum(entry["value"] for entry in series) == 8
        # series are labeled with the dataset as the channel
        assert all(entry["labels"]["channel"] == "commercial" for entry in series)
        assert "repro_block_compression_seconds" in registry


class TestReport:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--blocks", "8", "-o", str(out)]) == 0
        document = out.read_text()
        assert "# Reproduction report" in document
        assert "Headline" in document


class TestFigure:
    @pytest.mark.parametrize("number", [1, 5, 7])
    def test_printable_figures(self, number, capsys):
        """``repro figure N`` prints the report's own section N."""
        from repro.experiments.report import FIGURE_SECTIONS

        assert main(["figure", str(number)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(f"## Figure {number} ")
        assert printed == "\n".join(FIGURE_SECTIONS[number]()) + "\n"

    def test_unknown_figure_exits(self):
        with pytest.raises(SystemExit):
            main(["figure", "12"])


class TestReplayEdgeBlocks:
    """Empty and single-block streams must flow through cleanly."""

    @pytest.mark.parametrize("blocks", [0, 1])
    def test_replay(self, blocks, capsys):
        assert main(["replay", "--blocks", str(blocks), "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert f"blocks={blocks}" in out
        assert "total_time_s" in out

    @pytest.mark.parametrize("blocks", [0, 1])
    def test_stats(self, blocks, capsys):
        import json

        assert main(["stats", "--blocks", str(blocks), "--interval", "0"]) == 0
        registry = json.loads(capsys.readouterr().out)
        if blocks:
            series = registry["repro_blocks_total"]["series"]
            assert sum(entry["value"] for entry in series) == blocks
        else:
            assert isinstance(registry, dict)


class TestFuzzCommand:
    def test_short_clean_run(self, capsys):
        assert main(["fuzz", "--seed", "3", "--iterations", "40"]) == 0
        out = capsys.readouterr().out
        assert "seed=3" in out
        assert "crashes=0" in out

    def test_deterministic_output(self, capsys):
        args = ["fuzz", "--seed", "12", "--iterations", "40"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_budget_flag_accepts_suffixes(self, capsys):
        assert main(["fuzz", "--iterations", "10", "--budget", "1m"]) == 0
        capsys.readouterr()

    def test_bad_budget_exits(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--budget", "soon"])

    def test_replay_committed_corpus(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).parent / "verify" / "crash_corpus.jsonl"
        assert main(["fuzz", "--replay", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "0 still failing" in out

    def test_replay_still_failing_corpus_exits_nonzero(self, tmp_path, capsys):
        from repro.verify.fuzz import CrashEntry, write_corpus

        # "framing" rejects this only with CorruptStreamError; fabricate an
        # entry claiming an unknown target so replay must flag it.
        entry = CrashEntry(
            id="feedfeedfeed",
            target="no-such-target",
            seed=0,
            iteration=0,
            error_type="IndexError",
            error_message="fabricated",
            data=b"\x00",
        )
        path = tmp_path / "bad.jsonl"
        write_corpus(str(path), [entry])
        assert main(["fuzz", "--replay", str(path)]) == 1
        assert "STILL-FAILING" in capsys.readouterr().out

    def test_crash_corpus_written_on_failure(self, tmp_path, capsys, monkeypatch):
        from repro.verify import fuzz as fuzz_module

        def broken_targets(corpus=None, codec_names=None):
            return [
                fuzz_module.FuzzTarget(
                    name="always-crashes",
                    execute=lambda data: (_ for _ in ()).throw(IndexError("boom")),
                    seeds=(b"seed",),
                )
            ]

        monkeypatch.setattr(fuzz_module, "build_default_targets", broken_targets)
        out_path = tmp_path / "crashes.jsonl"
        assert main(
            ["fuzz", "--iterations", "5", "--corpus-out", str(out_path)]
        ) == 1
        assert out_path.exists()
        [entry] = fuzz_module.load_corpus(str(out_path))
        assert entry.error_type == "IndexError"
        assert "CRASH" in capsys.readouterr().out


class TestPlacementCommand:
    def test_json_reproduces_the_breakdown(self, capsys):
        import json

        assert main(
            ["placement", "--blocks", "4", "--links", "1gbit", "1mbit", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["failures"] == []
        # 2 links x 4 modes (producer/raw/consumer/auto).
        assert len(payload["cells"]) == 8
        by_key = {(c["link"], c["mode"]): c for c in payload["cells"]}
        for link in ("1gbit", "1mbit"):
            producer = by_key[(link, "producer")]
            consumer = by_key[(link, "consumer")]
            auto = by_key[(link, "auto")]
            assert auto["makespan"] <= producer["makespan"] * (1 + 1e-9)
            assert consumer["compress_seconds"] == 0.0
            assert consumer["downstream_crc32"] == producer["downstream_crc32"]

    def test_human_table(self, capsys):
        assert main(["placement", "--blocks", "3", "--links", "1gbit"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "ok: auto <= always-producer" in out

    def test_replay_accepts_placement_flags(self, capsys):
        assert main(
            [
                "replay", "--blocks", "4", "--placement", "auto",
                "--interference", "0.15", "--link", "1gbit",
            ]
        ) == 0
        assert "blocks" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--queue-depth", "0"),
            ("--block-size", "0"),
            ("--interference", "-1"),
            ("--interference", "nan"),
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["placement", "--blocks", "2", "--links", "1gbit", flag, value])
        err = capsys.readouterr().err
        assert caught.value.code == 2
        assert f"argument {flag}" in err and "Traceback" not in err

    def test_workers_is_only_the_modeled_schedule_width(self, capsys):
        """`--workers` survives on `placement` alone, where it changes the
        modeled schedule; the codec-pool flags of replay/stats/report are gone."""
        for argv in (
            ["replay", "--workers", "4"],
            ["stats", "--pool-mode", "threads"],
            ["report", "--workers", "2"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        capsys.readouterr()
        assert main(["placement", "--blocks", "3", "--links", "1gbit", "--workers", "2"]) == 0


class TestFanoutCommand:
    ARGS = ["fanout", "--subscribers", "64", "--channels", "4", "--events", "2"]

    def test_json_is_the_result_record(self, capsys):
        import json
        from dataclasses import fields

        from repro.fabric.loadgen import FanoutResult

        assert main(self.ARGS + ["--batch", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        derived = {"speedup", "fabric_events_per_second", "baseline_events_per_second"}
        assert set(payload) == {f.name for f in fields(FanoutResult)} | derived
        assert payload["crc_ok"] is True
        assert payload["deliveries"] == payload["events_published"] * payload["fanout_ratio"]
        assert payload["batches_emitted"] > 0

    def test_human_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "| fabric |" in out and "| baseline |" in out
        assert "byte-identical to serial path: True" in out
