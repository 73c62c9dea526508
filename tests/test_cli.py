"""Command-line interface."""

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.experiments import SCALES, Scale

#: Registered under SCALES for sweep tests so forked jobs finish fast.
MICRO = Scale("micro", 300, 2, 1, 2)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "605.mcf-1554B", "--secure", "--suf",
             "--prefetcher", "tsb", "--mode", "on-commit"])
        assert args.secure and args.suf
        assert args.prefetcher == "tsb"

    def test_figure_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig1",
                                       "--scale", "huge"])


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "605.mcf-1554B" in out
        assert "bfs" in out

    def test_run(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "L1D MPKI" in out

    def test_run_secure_shows_gm(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--secure", "--suf"]) == 0
        out = capsys.readouterr().out
        assert "GM" in out and "SUF drops" in out

    def test_run_delay(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--delay"]) == 0
        assert "delayed loads" in capsys.readouterr().out

    def test_run_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "700.fake"])

    def test_compare(self, capsys):
        assert main(["compare", "657.xz-2302B", "--loads", "1500"]) == 0
        out = capsys.readouterr().out
        assert "TSB" in out and "speedup" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table III" in out

    def test_attack_closed(self, capsys):
        assert main(["attack", "--secure", "--mode", "on-commit"]) == 0
        assert "channel closed" in capsys.readouterr().out

    def test_figure_unknown(self):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["figure", "fig99"])

    def test_multicore(self, capsys):
        assert main(["multicore", "--mixes", "1", "--loads", "1200",
                     "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out and "average" in out

    def test_report_assembles_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1.txt").write_text("Fig. 1: hello\n")
        out_file = tmp_path / "report.md"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(out_file)]) == 0
        content = out_file.read_text()
        assert "## fig1" in content and "Fig. 1: hello" in content

    def test_report_missing_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="no results directory"):
            main(["report", "--results-dir", str(tmp_path / "nope")])


class TestObservabilityCommands:
    def test_run_timeseries_jsonl(self, tmp_path, capsys):
        import json
        from repro.obs import validate_timeseries_record
        out_file = tmp_path / "ts.jsonl"
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--timeseries", str(out_file),
                     "--sample-interval", "500"]) == 0
        out = capsys.readouterr().out
        assert "time series" in out and "500 instructions" in out
        lines = out_file.read_text().splitlines()
        assert lines
        for line in lines:
            validate_timeseries_record(json.loads(line))

    def test_run_timeseries_csv(self, tmp_path):
        out_file = tmp_path / "ts.csv"
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--timeseries", str(out_file)]) == 0
        header = out_file.read_text().splitlines()[0]
        assert "ipc" in header.split(",")

    def test_run_metrics_dump(self, capsys):
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counter   core.committed_instructions" in out
        assert "gauge     core.ipc" in out

    def test_run_negative_sample_interval(self):
        with pytest.raises(SystemExit, match="--sample-interval"):
            main(["run", "657.xz-2302B", "--sample-interval", "-5"])

    def test_trace_stdout(self, capsys):
        import json
        from repro.obs import validate_event
        assert main(["trace", "657.xz-2302B", "--loads", "1500",
                     "--limit", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 20
        for line in lines:
            validate_event(json.loads(line))

    def test_trace_output_file(self, tmp_path, capsys):
        import json
        from repro.obs import validate_event
        out_file = tmp_path / "events.jsonl"
        assert main(["trace", "657.xz-2302B", "--loads", "1500",
                     "--secure", "--prefetcher", "berti",
                     "--output", str(out_file)]) == 0
        assert "event(s) retained" in capsys.readouterr().out
        lines = out_file.read_text().splitlines()
        assert lines
        for line in lines:
            validate_event(json.loads(line))

    def test_trace_capacity_bounds_output(self, tmp_path):
        out_file = tmp_path / "events.jsonl"
        assert main(["trace", "657.xz-2302B", "--loads", "1500",
                     "--capacity", "32",
                     "--output", str(out_file)]) == 0
        assert len(out_file.read_text().splitlines()) <= 32

    def test_trace_zero_loads(self):
        with pytest.raises(SystemExit, match="--loads must be a positive"):
            main(["trace", "657.xz-2302B", "--loads", "0"])

    def test_validate_cli(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main
        out_file = tmp_path / "ts.jsonl"
        assert main(["run", "657.xz-2302B", "--loads", "1500",
                     "--timeseries", str(out_file)]) == 0
        capsys.readouterr()
        assert validate_main([str(out_file), "--kind", "timeseries"]) == 0
        out_file.write_text('{"not": "a record"}\n')
        assert validate_main([str(out_file), "--kind",
                              "timeseries"]) == 1


class TestArgumentValidation:
    def test_multicore_zero_mixes(self):
        with pytest.raises(SystemExit, match="--mixes must be a positive"):
            main(["multicore", "--mixes", "0"])

    def test_run_zero_loads(self):
        with pytest.raises(SystemExit, match="--loads must be a positive"):
            main(["run", "657.xz-2302B", "--loads", "0"])

    def test_compare_negative_loads(self):
        with pytest.raises(SystemExit, match="--loads must be a positive"):
            main(["compare", "657.xz-2302B", "--loads", "-5"])

    def test_figure_zero_jobs(self):
        with pytest.raises(SystemExit, match="--jobs must be a positive"):
            main(["figure", "fig1", "--jobs", "0", "--no-store"])


class TestInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli.COMMANDS, "tables", interrupted)
        assert main(["tables"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestSweep:
    @pytest.fixture(autouse=True)
    def micro_scale(self, monkeypatch):
        monkeypatch.setitem(SCALES, "micro", MICRO)

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["sweep", "fig99", "--no-store"])

    def test_sweep_then_cached_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["sweep", "fig1", "--scale", "micro", "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Fig. 1" in first and "simulated=" in first
        assert "profile:" in first

        # Everything is in the store now: the rerun must hit for every
        # job, which --expect-cached turns into a hard check.
        assert main(argv + ["--expect-cached"]) == 0
        second = capsys.readouterr().out
        assert "simulated=0" in second

    def test_figure_no_store(self, capsys):
        assert main(["figure", "fig1", "--scale", "micro",
                     "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "store " not in out


class TestSigtermParity:
    def test_sigterm_exits_143(self, monkeypatch, capsys):
        # SIGTERM must unwind like Ctrl-C (finally blocks run, store
        # checkpoints survive) but exit 143 instead of 130.
        import os
        import signal
        import time

        def long_running(args):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)   # the handler interrupts this immediately
            return 0        # pragma: no cover

        monkeypatch.setitem(cli.COMMANDS, "tables", long_running)
        assert main(["tables"]) == 143
        assert "terminated" in capsys.readouterr().err

    def test_handler_restored_after_main(self, monkeypatch):
        import signal

        monkeypatch.setitem(cli.COMMANDS, "tables", lambda args: 0)
        before = signal.getsignal(signal.SIGTERM)
        assert main(["tables"]) == 0
        assert signal.getsignal(signal.SIGTERM) is before
