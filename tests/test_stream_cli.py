"""CLI streaming workflows: the ``stream`` subcommand and ``-`` paths."""

from __future__ import annotations

import io
import re
import sys

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream-cli") / "capture.npz"
    assert main([
        "capture", "--vehicle", "sterling", "--duration", "2",
        "--seed", "11", "--output", str(path),
    ]) == 0
    return path


@pytest.fixture(scope="module")
def model_path(archive_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream-cli-model") / "model.npz"
    assert main([
        "train", "--vehicle", "sterling", "--input", str(archive_path),
        "--metric", "euclidean", "--output", str(path),
    ]) == 0
    return path


class _Stdin:
    """A stand-in for ``sys.stdin`` exposing only the binary buffer."""

    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)


class TestStreamCommand:
    def test_replay_with_hijack_emits_alerts(self, archive_path, model_path, capsys):
        assert main([
            "stream", "--vehicle", "sterling", "--model", str(model_path),
            "--input", str(archive_path),
            "--hijack", "0.4", "--margin", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "ALERT" in out and "cluster-mismatch" in out
        assert "messages=" in out and "frames/s" in out

    def test_checkpoint_then_resume(
        self, archive_path, model_path, tmp_path, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        assert main([
            "stream", "--vehicle", "sterling", "--model", str(model_path),
            "--input", str(archive_path), "--margin", "50",
            "--checkpoint", str(checkpoint), "--checkpoint-every", "100",
        ]) == 0
        first = capsys.readouterr().out
        assert "checkpoints=" in first and (checkpoint / "meta.json").exists()

        # The final checkpoint sits at end-of-stream: resuming the same
        # archive re-ingests and re-classifies nothing.
        assert main([
            "stream", "--vehicle", "sterling", "--resume", str(checkpoint),
            "--input", str(archive_path),
        ]) == 0
        assert "messages=0" in capsys.readouterr().out

    def test_resume_past_the_end_exits_2(
        self, archive_path, model_path, tmp_path, capsys
    ):
        checkpoint = tmp_path / "ckpt"
        assert main([
            "stream", "--vehicle", "sterling", "--model", str(model_path),
            "--input", str(archive_path), "--margin", "50",
            "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        assert main([
            "stream", "--vehicle", "sterling", "--resume", str(checkpoint),
            "--duration", "0.2",
        ]) == 2
        assert "the source has only" in capsys.readouterr().err

    def test_euclidean_model_with_telemetry(self, archive_path, model_path, capsys):
        # model_path is a Euclidean model: no inverse covariance to pin.
        assert main([
            "stream", "--vehicle", "sterling", "--model", str(model_path),
            "--input", str(archive_path), "--margin", "50", "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert re.search(r"profile health: (healthy|drifting|suspect) \([1-9]", out)

    def test_metrics_out(self, archive_path, model_path, tmp_path, capsys):
        metrics = tmp_path / "stream.json"
        assert main([
            "stream", "--vehicle", "sterling", "--model", str(model_path),
            "--input", str(archive_path), "--margin", "50",
            "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        assert metrics.exists()
        import json

        names = {c["name"] for c in json.loads(metrics.read_text())["counters"]}
        assert "vprofile_stream_chunks_total" in names
        assert "vprofile_messages_total" in names

    def test_missing_model_exits_2(self, archive_path, capsys):
        assert main([
            "stream", "--vehicle", "sterling", "--model", "/nonexistent.npz",
            "--input", str(archive_path),
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestDashPaths:
    def test_capture_to_stdout(self, capsysbinary):
        assert main([
            "capture", "--vehicle", "sterling", "--duration", "1",
            "--seed", "12", "--output", "-",
        ]) == 0
        captured = capsysbinary.readouterr()
        assert captured.out[:2] == b"PK"  # npz == zip container
        assert b"captured" in captured.err

    def test_detect_from_stdin(self, archive_path, model_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", _Stdin(archive_path.read_bytes()))
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--input", "-", "--margin", "50",
        ]) == 0
        assert "accuracy=" in capsys.readouterr().out

    def test_stream_from_stdin(self, archive_path, model_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", _Stdin(archive_path.read_bytes()))
        assert main([
            "stream", "--vehicle", "sterling", "--model", str(model_path),
            "--input", "-", "--margin", "50",
        ]) == 0
        assert "messages=" in capsys.readouterr().out

    def test_train_from_stdin(self, archive_path, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sys, "stdin", _Stdin(archive_path.read_bytes()))
        out_model = tmp_path / "model.npz"
        assert main([
            "train", "--vehicle", "sterling", "--input", "-",
            "--metric", "euclidean", "--output", str(out_model),
        ]) == 0
        assert out_model.exists()

    def test_garbage_stdin_exits_2(self, model_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", _Stdin(b""))
        assert main([
            "stream", "--vehicle", "sterling", "--model", str(model_path),
            "--input", "-",
        ]) == 2
        assert "not a trace archive" in capsys.readouterr().err

    def test_missing_archive_still_errors(self, model_path, capsys):
        assert main([
            "detect", "--vehicle", "sterling", "--model", str(model_path),
            "--input", "/nonexistent.npz",
        ]) == 2
        assert "not found" in capsys.readouterr().err
