"""Command-line interface workflows."""

import json

import pytest

from repro.cli import main


class TestInfo:
    def test_vehicle_a(self, capsys):
        assert main(["info", "--vehicle", "a"]) == 0
        out = capsys.readouterr().out
        assert "VehicleA" in out
        assert "ECU0" in out and "ECU4" in out

    def test_sterling(self, capsys):
        assert main(["info", "--vehicle", "sterling"]) == 0
        assert "SterlingActerra" in capsys.readouterr().out


class TestCaptureTrainDetect:
    @pytest.fixture(scope="class")
    def capture_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "capture.npz"
        assert main([
            "capture", "--vehicle", "sterling", "--duration", "6",
            "--seed", "3", "--output", str(path),
        ]) == 0
        return path

    @pytest.fixture(scope="class")
    def model_path(self, capture_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-model") / "model.npz"
        assert main([
            "train", "--vehicle", "sterling", "--input", str(capture_path),
            "--output", str(path),
        ]) == 0
        return path

    def test_capture_creates_archive(self, capture_path):
        assert capture_path.exists()

    def test_train_reports_clusters(self, model_path, capsys):
        assert model_path.exists()

    def test_detect_clean(self, model_path, capsys):
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--duration", "2", "--seed", "9",
        ]) == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out
        accuracy = float(out.split("accuracy=")[1].split()[0])
        assert accuracy > 0.99

    def test_detect_hijack(self, model_path, capsys):
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--duration", "2", "--seed", "9", "--hijack", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        f_score = float(out.split("F=")[1].split()[0])
        assert f_score > 0.99

    def test_detect_fixed_margin(self, model_path, capsys):
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--duration", "1", "--seed", "9", "--margin", "5.0",
        ]) == 0
        assert "auto-tuned" not in capsys.readouterr().out

    def test_train_cluster_by_distance(self, capture_path, tmp_path, capsys):
        path = tmp_path / "auto.npz"
        assert main([
            "train", "--vehicle", "sterling", "--input", str(capture_path),
            "--cluster-by-distance", "--output", str(path),
        ]) == 0
        assert "2 clusters" in capsys.readouterr().out

    def test_detect_metrics_out_prometheus(self, model_path, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--duration", "1", "--seed", "9", "--margin", "5.0",
            "--metrics-out", str(metrics),
        ]) == 0
        text = metrics.read_text()
        assert "# TYPE vprofile_stage_seconds histogram" in text
        for stage in ("extract", "classify", "update"):
            assert f'vprofile_stage_seconds_count{{stage="{stage}"}}' in text
        assert "vprofile_messages_total" in text
        assert 'vprofile_anomalies_total{reason="cluster-mismatch"}' in text
        assert f"metrics -> {metrics}" in capsys.readouterr().err

    def test_detect_metrics_out_json_and_stats(self, model_path, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--duration", "1", "--seed", "9", "--margin", "5.0",
            "--metrics-out", str(metrics),
        ]) == 0
        import json

        snapshot = json.loads(metrics.read_text())
        names = {c["name"] for c in snapshot["counters"]}
        assert "vprofile_messages_total" in names
        capsys.readouterr()

        assert main(["stats", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "vprofile_stage_seconds" in out
        assert "vprofile_messages_total" in out

    def test_stats_roundtrip_prometheus(self, model_path, tmp_path, capsys):
        metrics = tmp_path / "rt.prom"
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--duration", "1", "--seed", "9", "--margin", "5.0",
            "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(metrics)]) == 0
        assert "stage" in capsys.readouterr().out

    def test_detect_verbose_streams_events(self, model_path, capsys):
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--duration", "1", "--seed", "9", "--margin", "5.0", "-v",
        ]) == 0
        import json

        err = capsys.readouterr().err
        events = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert any(e["event"] == "cli.detect" for e in events)

    def test_detect_missing_model_exits_nonzero(self, capsys):
        assert main([
            "detect", "--vehicle", "sterling", "--model", "no-such-model.npz",
            "--duration", "1",
        ]) == 2
        assert "error: model file not found" in capsys.readouterr().err


class TestExperiment:
    def test_suite(self, capsys):
        assert main([
            "experiment", "suite", "--vehicle", "sterling",
            "--duration", "8", "--metric", "mahalanobis",
        ]) == 0
        out = capsys.readouterr().out
        assert "False positive test" in out
        assert "Foreign device imitation test" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestJobsAndCache:
    def test_jobs_flag_capture_matches_serial(self, tmp_path, capsys):
        from repro.acquisition.archive import load_traces

        serial = tmp_path / "serial.npz"
        fanned = tmp_path / "fanned.npz"
        for path, jobs in ((serial, "1"), (fanned, "2")):
            assert main([
                "capture", "--vehicle", "sterling", "--duration", "1",
                "--seed", "5", "--jobs", jobs, "--output", str(path),
            ]) == 0
        capsys.readouterr()
        import numpy as np

        for a, b in zip(load_traces(serial), load_traces(fanned)):
            assert np.array_equal(a.counts, b.counts)
            assert a.start_s == b.start_s

    def test_repro_jobs_env_is_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert main([
            "capture", "--vehicle", "sterling", "--duration", "1",
            "--seed", "5", "--output", str(tmp_path / "env.npz"),
        ]) == 0
        capsys.readouterr()

    def test_bad_repro_jobs_env_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main([
            "capture", "--vehicle", "sterling", "--duration", "1",
            "--output", str(tmp_path / "bad.npz"),
        ]) == 2
        assert "REPRO_JOBS" in capsys.readouterr().err

    def test_explicit_jobs_wins_over_bad_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main([
            "capture", "--vehicle", "sterling", "--duration", "1",
            "--jobs", "1", "--output", str(tmp_path / "flag.npz"),
        ]) == 0
        capsys.readouterr()

    def test_cache_flow_and_subcommand(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        for attempt in ("miss", "hit"):
            assert main([
                "capture", "--vehicle", "sterling", "--duration", "1",
                "--seed", "5", "--jobs", "1",
                "--cache", "--cache-dir", str(cache_dir),
                "--output", str(tmp_path / f"{attempt}.npz"),
            ]) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert str(cache_dir) in out
        assert "entries: 1" in out

        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out
        assert main(["cache", "info", "--dir", str(cache_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestErrorPaths:
    def test_unknown_vehicle_exits_nonzero(self, capsys):
        # argparse `choices` rejects it before cmd dispatch: exit 2.
        with pytest.raises(SystemExit) as exc_info:
            main(["info", "--vehicle", "delorean"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'delorean'" in err

    def test_unknown_vehicle_backstop_message(self):
        # The lookup itself still guards non-argparse callers.
        from repro.cli import _vehicle
        from repro.errors import DatasetError

        with pytest.raises(DatasetError, match="unknown vehicle 'delorean'"):
            _vehicle("delorean")

    def test_train_missing_input_exits_nonzero(self, tmp_path, capsys):
        assert main([
            "train", "--vehicle", "sterling",
            "--input", str(tmp_path / "nope.npz"),
            "--output", str(tmp_path / "model.npz"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_out_missing_directory_fails_fast(self, tmp_path, capsys):
        # Checked before any capture work, not discovered at exit time.
        assert main([
            "detect", "--vehicle", "sterling", "--model", "irrelevant.npz",
            "--duration", "1",
            "--metrics-out", str(tmp_path / "no" / "dir" / "m.prom"),
        ]) == 2
        assert "metrics output directory does not exist" in capsys.readouterr().err

    def test_metrics_flushed_when_handler_fails(self, tmp_path, capsys):
        # A failing run must still leave its (partial) metrics behind:
        # the post-mortem needs whatever evidence accumulated.
        metrics = tmp_path / "m.prom"
        assert main([
            "detect", "--vehicle", "sterling",
            "--model", str(tmp_path / "missing.npz"),
            "--duration", "1",
            "--metrics-out", str(metrics),
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert f"metrics -> {metrics}" in err
        assert "vprofile_messages_total 0" in metrics.read_text()

    def test_stats_missing_file_exits_nonzero(self, capsys):
        assert main(["stats", "no-such-metrics.prom"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_garbage_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFleet:
    def test_fleet_bench_smoke(self, capsys):
        assert main([
            "fleet", "bench",
            "--tenants", "2", "--duration", "0.05",
            "--chunk-samples", "16384", "--train-duration", "2",
            "--seed", "5", "--no-rehydration-check",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet gateway load test" in out
        assert "throughput:" in out

    def test_fleet_bench_json_output(self, capsys):
        assert main([
            "fleet", "bench", "--json",
            "--tenants", "1", "--duration", "0.05",
            "--chunk-samples", "16384", "--train-duration", "2",
            "--ws-fraction", "0", "--no-rehydration-check",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tenants"] == 1
        assert report["chunks"] > 0
        assert report["rehydration"] is None
