"""Command-line interface: ``python -m repro.cli <command>``.

Wraps the common workflows so the library is usable without writing
Python:

* ``info``        — describe a built-in vehicle;
* ``capture``     — record a simulated session to a trace archive;
* ``train``       — train a vProfile model from an archive (or a fresh
  capture) and save it;
* ``detect``      — replay an archive through a saved model, optionally
  injecting hijack attacks, and print the confusion matrix;
* ``stream``      — run the online streaming runtime (chunked ingestion,
  inline Algorithm 3/4 classification, checkpoint/resume) and print
  alerts;
  ``--serve HOST:PORT`` exposes ``/metrics`` / ``/health`` /
  ``/timeseries`` over HTTP while the run is live, ``--flight-dir``
  dumps forensics bundles on alert;
* ``health``      — scrape the per-SA profile-health verdicts from a
  running ``stream --serve`` endpoint;
* ``fleet``       — the multi-tenant detection gateway: ``fleet serve``
  runs it until SIGTERM (then drains tenants to checkpoints),
  ``fleet bench`` drives the deterministic N-vehicle load generator;
* ``experiment``  — regenerate one of the paper's experiments
  (``suite``, ``temperature``, ``voltage``, ``sweep``);
* ``stats``       — summarize a metrics file emitted by a previous run;
* ``lint``        — run the AST invariant checker (``VPLxxx`` rules)
  over the repo's own source.

``capture --output -`` writes the archive to stdout, and ``train`` /
``detect`` / ``stream`` accept ``--input -`` to read one from stdin, so
stages compose over pipes.

Observability: ``detect`` and ``experiment`` accept ``--metrics-out
PATH`` (enable the metrics registry and write a Prometheus ``.prom`` /
``.json`` snapshot on exit) and ``-v`` / ``-vv`` (stream structured
JSON events to stderr at info / debug level).  Errors from bad inputs
(missing model or archive paths, unknown vehicles) exit with status 2
and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.acquisition.archive import load_traces, save_traces
from repro.acquisition.trace import VoltageTrace
from repro.attacks.hijack import LabelledEdgeSet, apply_hijack
from repro.core.detection import AnomalyReason, Detector
from repro.core.edge_extraction import ExtractionConfig, extract_many
from repro.core.model import Metric, VProfileModel
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.core.training import TrainingData, train_model
from repro.errors import DatasetError, DetectionError, ReproError
from repro.eval.confusion import ConfusionMatrix
from repro.eval.environment import temperature_experiment, voltage_experiment
from repro.eval.margin import tune_margin
from repro.eval.reporting import (
    format_suite,
    format_sweep,
    format_temperature,
    format_voltage,
)
from repro.eval.suite import SuiteInputs, run_detection_suite
from repro.eval.sweeps import rate_resolution_sweep
from repro.perf.cache import CaptureCache
from repro.perf.parallel import default_jobs
from repro.stream import (
    DEFAULT_CHUNK_SAMPLES,
    LiveSource,
    ReplaySource,
    StreamConfig,
    StreamTelemetry,
    TelemetryConfig,
    load_checkpoint,
)
from repro.vehicles.dataset import capture_session
from repro.vehicles.profiles import VehicleConfig, sterling_acterra, vehicle_a, vehicle_b

VEHICLES = {
    "a": vehicle_a,
    "b": vehicle_b,
    "sterling": sterling_acterra,
}


def _vehicle(name: str) -> VehicleConfig:
    try:
        factory = VEHICLES[name]
    except KeyError:
        raise DatasetError(
            f"unknown vehicle {name!r}; choose from {', '.join(sorted(VEHICLES))}"
        ) from None
    return factory()


def _add_vehicle_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--vehicle",
        choices=sorted(VEHICLES),
        default="a",
        help="built-in synthetic vehicle (default: a)",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for capture/extraction (default: $REPRO_JOBS; "
             "leave both unset for the legacy serial path)",
    )


def _effective_jobs(args: argparse.Namespace) -> int | None:
    """``--jobs`` when given, else the ``REPRO_JOBS`` env default."""
    jobs = getattr(args, "jobs", None)
    return jobs if jobs is not None else default_jobs()


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="collect metrics and write them on exit "
             "(.json snapshot, anything else Prometheus text format)",
    )
    parser.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help="stream structured JSON events to stderr (-v info, -vv debug)",
    )


def cmd_info(args: argparse.Namespace) -> int:
    vehicle = _vehicle(args.vehicle)
    print(f"{vehicle.name}: {len(vehicle.ecus)} ECUs, "
          f"{vehicle.bitrate / 1e3:.0f} kb/s bus, captured at "
          f"{vehicle.sample_rate / 1e6:g} MS/s / {vehicle.resolution_bits} bit")
    for ecu in vehicle.ecus:
        trx = ecu.transceiver
        sas = ", ".join(f"0x{sa:02X}" for sa in ecu.source_addresses)
        rates = ", ".join(f"{1 / s.period_s:.0f}/s" for s in ecu.schedules)
        print(f"  {ecu.name}: dominant {trx.v_dominant:.3f} V, "
              f"rise {trx.rise.natural_freq_hz / 1e6:.2f} MHz "
              f"(zeta {trx.rise.damping}), SAs [{sas}], rates [{rates}]")
    return 0


def cmd_capture(args: argparse.Namespace) -> int:
    vehicle = _vehicle(args.vehicle)
    cache = None
    if args.cache:
        cache = CaptureCache(args.cache_dir)
    session = capture_session(
        vehicle, args.duration, seed=args.seed,
        jobs=_effective_jobs(args), cache=cache,
    )
    if args.output == "-":
        # np.savez needs a seekable sink; stdout pipes are not.
        buffer = io.BytesIO()
        save_traces(buffer, session.traces)
        sys.stdout.buffer.write(buffer.getvalue())
        sys.stdout.buffer.flush()
        destination, sink = "<stdout>", sys.stderr
    else:
        save_traces(args.output, session.traces)
        destination, sink = args.output, sys.stdout
    print(f"captured {len(session)} messages from {vehicle.name} "
          f"-> {destination}", file=sink)
    return 0


def _archive_input(path: str):
    """Resolve an ``--input`` value: ``-`` slurps stdin into a buffer."""
    if path == "-":
        return io.BytesIO(sys.stdin.buffer.read())
    if not Path(path).exists():
        raise DatasetError(f"trace archive not found: {path}")
    return path


def _traces_for(args: argparse.Namespace):
    vehicle = _vehicle(args.vehicle)
    input_path = getattr(args, "input", None)
    if input_path:
        return vehicle, load_traces(_archive_input(input_path))
    session = capture_session(
        vehicle, args.duration, seed=args.seed, jobs=_effective_jobs(args)
    )
    return vehicle, session.traces


def _extract_for(args: argparse.Namespace, traces, extraction):
    """Edge-set extraction honouring the effective ``--jobs`` value."""
    jobs = _effective_jobs(args)
    if jobs is not None:
        from repro.perf.engine import extract_many_parallel

        return extract_many_parallel(traces, extraction, jobs=jobs)
    return extract_many(traces, extraction)


def cmd_train(args: argparse.Namespace) -> int:
    vehicle, traces = _traces_for(args)
    extraction = ExtractionConfig.for_trace(traces[0])
    edge_sets = _extract_for(args, traces, extraction)
    model = train_model(
        TrainingData.from_edge_sets(edge_sets),
        metric=Metric(args.metric),
        sa_clusters=vehicle.sa_clusters if not args.cluster_by_distance else None,
    )
    model.save(args.output)
    print(f"trained {args.metric} model on {len(edge_sets)} messages "
          f"({model.n_clusters} clusters) -> {args.output}")
    for cluster in model.clusters:
        print(f"  {cluster.name}: {cluster.count} edge sets, "
              f"threshold {cluster.max_distance:.3f}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    if not Path(args.model).exists():
        raise DetectionError(f"model file not found: {args.model}")
    vehicle, traces = _traces_for(args)
    model = VProfileModel.load(args.model)
    extraction = ExtractionConfig.for_trace(traces[0])
    with obs.span("cli.detect", vehicle=vehicle.name):
        edge_sets = _extract_for(args, traces, extraction)

        rng = np.random.default_rng(args.seed)
        if args.hijack > 0:
            labelled = apply_hijack(
                edge_sets, vehicle.sa_clusters, probability=args.hijack, rng=rng
            )
        else:
            labelled = [
                LabelledEdgeSet(e, is_attack=False, true_sender=e.metadata.get("sender", "?"))
                for e in edge_sets
            ]
        vectors = np.stack([l.edge_set.vector for l in labelled])
        sas = np.array([l.edge_set.source_address for l in labelled])
        actual = np.array([l.is_attack for l in labelled])
        batch = Detector(model).classify_batch(vectors, sas)
        if args.margin is None:
            objective = "f-score" if args.hijack > 0 else "accuracy"
            margin = tune_margin(batch, actual, objective).margin
            print(f"auto-tuned margin: {margin:.4g} (objective: {objective})")
        else:
            margin = args.margin
        predicted = batch.anomalies(margin)
        _count_batch_outcomes(batch, predicted, margin)
        confusion = ConfusionMatrix.from_predictions(actual, predicted)
    print(confusion.as_table())
    print(f"accuracy={confusion.accuracy:.5f} precision={confusion.precision:.5f} "
          f"recall={confusion.recall:.5f} F={confusion.f_score:.5f}")
    obs.get_event_log().info(
        "cli.detect",
        vehicle=vehicle.name,
        messages=len(labelled),
        anomalies=int(predicted.sum()),
        margin=float(margin),
        accuracy=confusion.accuracy,
        f_score=confusion.f_score,
    )
    return 0


def _count_batch_outcomes(batch, predicted: np.ndarray, margin: float) -> None:
    """Mirror the batch verdicts into the message/anomaly counters.

    The batch path bypasses ``VProfilePipeline.process``, so the
    per-reason breakdown is reconstructed from the batch arrays
    (Algorithm 3's precedence: unknown SA, then cluster mismatch, then
    distance).  A no-op on the null registry.
    """
    registry = obs.get_registry()
    if not registry.enabled:
        return
    registry.counter("vprofile_messages_total").inc(int(predicted.shape[0]))
    unknown = batch.expected_cluster < 0
    mismatch = ~unknown & (batch.expected_cluster != batch.predicted_cluster)
    exceeded = predicted & ~unknown & ~mismatch
    for reason, flags in (
        (AnomalyReason.UNKNOWN_SA, unknown),
        (AnomalyReason.CLUSTER_MISMATCH, mismatch),
        (AnomalyReason.DISTANCE_EXCEEDED, exceeded),
    ):
        count = int(flags.sum())
        if count:
            registry.counter("vprofile_anomalies_total", reason=reason.value).inc(count)


def cmd_stream(args: argparse.Namespace) -> int:
    vehicle = _vehicle(args.vehicle)

    resume = None
    margin = args.margin
    if args.resume:
        resume = load_checkpoint(args.resume)
        if margin is None:
            margin = resume.margin
    if margin is None:
        margin = 5.0  # comfortable slack against synthetic noise

    pipeline = VProfilePipeline(PipelineConfig(
        margin=margin,
        sa_clusters=vehicle.sa_clusters,
        online_update=args.online_update,
    ))

    if args.input:
        source = ReplaySource.from_archive(
            _archive_input(args.input), args.chunk_samples
        )
    else:
        # Live simulation; seed offset keeps the streamed traffic
        # distinct from the training capture below.
        source = LiveSource(
            vehicle, args.duration, args.chunk_samples, seed=args.seed + 1,
            jobs=_effective_jobs(args),
        )

    if resume is None:
        if args.model:
            if not Path(args.model).exists():
                raise DetectionError(f"model file not found: {args.model}")
            probe = VoltageTrace(
                counts=np.zeros(2, dtype=np.int32),
                sample_rate=source.sample_rate,
                resolution_bits=source.resolution_bits,
                bitrate=source.bitrate,
            )
            pipeline.load_model(
                VProfileModel.load(args.model), ExtractionConfig.for_trace(probe)
            )
        else:
            training = capture_session(
                vehicle, args.train_duration, seed=args.seed,
                jobs=_effective_jobs(args),
            )
            pipeline.train(training.traces)
            print(f"trained on a fresh {args.train_duration:g}s capture "
                  f"({len(training)} messages, "
                  f"{pipeline.model.n_clusters} clusters)")

    # Longitudinal telemetry: built up front (not by the runtime) so the
    # component handles exist before the run — the HTTP server scrapes
    # /health and /timeseries while the stream is still live.
    serve_spec = obs.parse_host_port(args.serve) if args.serve else None
    telemetry = None
    if args.telemetry or args.flight_dir or serve_spec is not None:
        model = resume.model if resume is not None else pipeline.model
        telemetry = StreamTelemetry(
            TelemetryConfig(flight_dir=args.flight_dir),
            model=model,
            margin=margin,
        )

    config = StreamConfig(
        batch_size=args.batch_size,
        checkpoint_dir=args.checkpoint,
        checkpoint_every_chunks=args.checkpoint_every,
        hijack_probability=args.hijack,
        hijack_seed=args.hijack_seed,
        telemetry=telemetry,
    )

    # /metrics is only useful with a live registry; when --metrics-out
    # did not already enable one, serve a run-scoped registry.
    owned_registry = previous_registry = None
    if serve_spec is not None and not obs.get_registry().enabled:
        owned_registry = obs.MetricsRegistry()
        obs.preregister_pipeline_metrics(owned_registry)
        previous_registry = obs.set_registry(owned_registry)

    server = None
    try:
        if serve_spec is not None:
            assert telemetry is not None
            host, port = serve_spec
            server = obs.MetricsServer(
                health=telemetry.health,
                timeseries=telemetry.timeseries,
                host=host,
                port=port,
            ).start()
            print(f"serving on {server.url} (/metrics /health /timeseries)")
        with obs.span("cli.stream", vehicle=vehicle.name):
            report = pipeline.stream(source, config, resume=resume)
        if server is not None and args.serve_grace > 0:
            print(f"serving for another {args.serve_grace:g}s after the run")
            time.sleep(args.serve_grace)
    finally:
        if server is not None:
            server.stop()
        if owned_registry is not None:
            obs.set_registry(previous_registry)

    shown = report.alerts.alerts[: args.max_alerts]
    for alert in shown:
        print(f"ALERT t={alert.timestamp_s:.6f}s SA 0x{alert.can_id:02X} "
              f"{alert.reason}: {alert.detail}")
    if len(report.alerts) > len(shown):
        print(f"... {len(report.alerts) - len(shown)} more alerts suppressed "
              f"(--max-alerts {args.max_alerts})")

    print(f"streamed {report.chunks} chunks / {report.samples} samples")
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(report.reasons.items()))
    print(f"  messages={report.messages} anomalies={report.anomalies}"
          + (f" [{reasons}]" if reasons else ""))
    print(f"  online-updates={report.updated} "
          f"extraction-failures={report.extraction_failures} "
          f"checkpoints={report.checkpoints}")
    print(f"  {report.frames_per_s:.0f} frames/s over {report.wall_s:.2f}s")
    if telemetry is not None:
        health = telemetry.health.verdicts()
        states = [s["state"] for s in health["sources"].values()]
        print(f"  profile health: {health['overall']} "
              f"({len(states)} sources: "
              f"{sum(s == 'healthy' for s in states)} healthy, "
              f"{sum(s == 'drifting' for s in states)} drifting, "
              f"{sum(s == 'suspect' for s in states)} suspect)")
        for bundle in report.bundles:
            print(f"forensics bundle -> {bundle}")
    if args.checkpoint:
        print(f"checkpoint -> {args.checkpoint}")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    host, port = obs.parse_host_port(args.address)
    url = f"http://{host}:{port}/health"
    from urllib.error import URLError
    from urllib.request import urlopen

    try:
        with urlopen(url, timeout=args.timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except (URLError, OSError, ValueError) as exc:
        print(f"error: cannot scrape {url}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"overall: {payload.get('overall', 'unknown')}")
    for sa, info in sorted(payload.get("sources", {}).items()):
        drift = info.get("drift_distance")
        drift_text = "n/a" if drift is None else f"{drift:.4f}"
        print(f"  {sa} [{info.get('cluster') or 'unmapped'}] {info['state']}: "
              f"drift={drift_text} "
              f"alert-ratio={info['alert_ratio']:.2f} "
              f"update-accept={info['update_accept_ratio']:.2f} "
              f"(n={info['verdicts_seen']})")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    vehicle = _vehicle(args.vehicle)
    jobs = _effective_jobs(args)
    cache = CaptureCache(args.cache_dir) if args.cache else None
    if args.name == "suite":
        inputs = SuiteInputs.capture(
            vehicle, duration_s=args.duration, seed=args.seed,
            jobs=jobs, cache=cache,
        )
        result = run_detection_suite(inputs, Metric(args.metric), seed=args.seed)
        print(format_suite(result))
    elif args.name == "temperature":
        result = temperature_experiment(
            vehicle, trials=2, duration_per_capture_s=args.duration / 6,
            seed=args.seed, jobs=jobs, cache=cache,
        )
        print(format_temperature(result))
    elif args.name == "voltage":
        result = voltage_experiment(
            vehicle, trials=3, duration_per_capture_s=args.duration / 10,
            seed=args.seed, jobs=jobs, cache=cache,
        )
        print(format_voltage(result))
    elif args.name == "sweep":
        session = capture_session(
            vehicle, args.duration, seed=args.seed, jobs=jobs, cache=cache
        )
        divisors = (1, 2, 4) if vehicle.sample_rate <= 10e6 else (1, 2, 4, 8)
        cells = rate_resolution_sweep(session, rate_divisors=divisors, seed=args.seed)
        print(format_sweep(cells, f"{vehicle.name} rate sweep"))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = CaptureCache(args.dir)
    if args.action == "info":
        info = cache.info()
        print(f"cache root: {info['root']}")
        print(f"entries: {info['entries']} "
              f"({info['total_bytes'] / 1e6:.2f} MB, max {info['max_entries']})")
        print(f"schema version: {info['schema_version']}")
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        raise DatasetError(f"metrics file not found: {args.path}")
    snapshot = obs.load_snapshot(path)
    print(obs.summarize_snapshot(snapshot, source=str(path)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vProfile CAN sender identification (DATE 2021 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="describe a built-in vehicle")
    _add_vehicle_arg(info)
    info.set_defaults(handler=cmd_info)

    capture = commands.add_parser("capture", help="record a session to an archive")
    _add_vehicle_arg(capture)
    capture.add_argument("--duration", type=float, default=5.0, help="seconds of traffic")
    capture.add_argument("--seed", type=int, default=0)
    capture.add_argument("--output", required=True,
                         help="archive path (.npz), or '-' for stdout")
    _add_jobs_arg(capture)
    capture.add_argument("--cache", action="store_true",
                         help="reuse/store this capture in the content-addressed cache")
    capture.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cache root (default: $REPRO_CACHE_DIR or "
                              "~/.cache/repro/captures)")
    capture.set_defaults(handler=cmd_capture)

    train = commands.add_parser("train", help="train and save a model")
    _add_vehicle_arg(train)
    train.add_argument("--input",
                       help="trace archive to train on ('-' for stdin)")
    train.add_argument("--duration", type=float, default=5.0,
                       help="capture length when no --input is given")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--metric", choices=["euclidean", "mahalanobis"],
                       default="mahalanobis")
    train.add_argument("--cluster-by-distance", action="store_true",
                       help="discover clusters instead of using the SA LUT")
    train.add_argument("--output", required=True, help="model path (.npz)")
    _add_jobs_arg(train)
    train.set_defaults(handler=cmd_train)

    detect = commands.add_parser("detect", help="replay traffic through a model")
    _add_vehicle_arg(detect)
    _add_obs_args(detect)
    detect.add_argument("--model", required=True)
    detect.add_argument("--input",
                        help="trace archive to replay ('-' for stdin)")
    detect.add_argument("--duration", type=float, default=2.0)
    detect.add_argument("--seed", type=int, default=1)
    detect.add_argument("--hijack", type=float, default=0.0,
                        help="SA-rewrite probability (0 disables attacks)")
    detect.add_argument("--margin", type=float, default=None,
                        help="detection margin (default: auto-tuned)")
    _add_jobs_arg(detect)
    detect.set_defaults(handler=cmd_detect)

    stream = commands.add_parser(
        "stream", help="online streaming detection over chunked samples"
    )
    _add_vehicle_arg(stream)
    _add_obs_args(stream)
    stream.add_argument("--model",
                        help="saved model (.npz); default: train on a fresh capture")
    stream.add_argument("--input",
                        help="trace archive to replay ('-' for stdin); "
                             "default: live bus simulation")
    stream.add_argument("--duration", type=float, default=2.0,
                        help="live-simulation length in seconds")
    stream.add_argument("--train-duration", type=float, default=5.0,
                        help="training-capture length when no model is given")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--chunk-samples", type=int,
                        default=DEFAULT_CHUNK_SAMPLES, metavar="N",
                        help="digitizer chunk size in samples")
    stream.add_argument("--batch-size", type=int, default=8,
                        help="most feature vectors per vectorised detector "
                             "call; each chunk's messages are classified "
                             "before the next chunk is read")
    stream.add_argument("--margin", type=float, default=None,
                        help="detection margin (default: checkpoint's, else 5)")
    stream.add_argument("--online-update", action="store_true",
                        help="fold OK verdicts back into the model (Algorithm 4)")
    stream.add_argument("--hijack", type=float, default=0.0,
                        help="in-flight SA-rewrite probability (0 disables)")
    stream.add_argument("--hijack-seed", type=int, default=0)
    stream.add_argument("--checkpoint", metavar="DIR",
                        help="write checkpoints to this directory")
    stream.add_argument("--checkpoint-every", type=int, default=0,
                        metavar="CHUNKS",
                        help="checkpoint cadence (0: final checkpoint only)")
    stream.add_argument("--resume", metavar="DIR",
                        help="resume from a checkpoint directory")
    stream.add_argument("--max-alerts", type=int, default=10,
                        help="alert lines to print before summarising")
    stream.add_argument("--telemetry", action="store_true",
                        help="enable longitudinal telemetry (time-series "
                             "store + per-SA profile health)")
    stream.add_argument("--flight-dir", metavar="DIR",
                        help="enable the alert flight recorder; forensics "
                             "bundles are written here (implies --telemetry)")
    stream.add_argument("--serve", metavar="HOST:PORT",
                        help="serve /metrics, /health and /timeseries over "
                             "HTTP during the run (port 0 picks a free port; "
                             "implies --telemetry)")
    stream.add_argument("--serve-grace", type=float, default=0.0,
                        metavar="SECONDS",
                        help="keep serving this long after the run finishes "
                             "(for scrapers that poll)")
    _add_jobs_arg(stream)
    stream.set_defaults(handler=cmd_stream)

    health = commands.add_parser(
        "health", help="scrape per-SA profile health from a --serve endpoint"
    )
    health.add_argument("address", metavar="HOST:PORT",
                        help="address of a running `repro stream --serve`")
    health.add_argument("--json", action="store_true",
                        help="print the raw /health JSON payload")
    health.add_argument("--timeout", type=float, default=5.0,
                        help="HTTP timeout in seconds")
    health.set_defaults(handler=cmd_health)

    experiment = commands.add_parser(
        "experiment", help="regenerate one of the paper's experiments"
    )
    _add_vehicle_arg(experiment)
    _add_obs_args(experiment)
    experiment.add_argument(
        "name", choices=["suite", "temperature", "voltage", "sweep"]
    )
    experiment.add_argument("--duration", type=float, default=15.0)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--metric", choices=["euclidean", "mahalanobis"],
                            default="mahalanobis")
    _add_jobs_arg(experiment)
    experiment.add_argument("--cache", action="store_true",
                            help="reuse/store captures in the content-addressed cache")
    experiment.add_argument("--cache-dir", metavar="DIR", default=None,
                            help="cache root (default: $REPRO_CACHE_DIR or "
                                 "~/.cache/repro/captures)")
    experiment.set_defaults(handler=cmd_experiment)

    cache = commands.add_parser(
        "cache", help="inspect or clear the content-addressed capture cache"
    )
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument("--dir", metavar="DIR", default=None,
                       help="cache root (default: $REPRO_CACHE_DIR or "
                            "~/.cache/repro/captures)")
    cache.set_defaults(handler=cmd_cache)

    stats = commands.add_parser(
        "stats", help="summarize a metrics file from --metrics-out"
    )
    stats.add_argument("path", help="metrics file (.json or Prometheus text)")
    stats.set_defaults(handler=cmd_stats)

    from repro.fleet.cli import add_fleet_parser

    add_fleet_parser(commands)

    from repro.lint import cli as lint_cli

    lint_options = lint_cli.build_parser(add_help=False)
    lint = commands.add_parser(
        "lint",
        parents=[lint_options],
        description=lint_options.description,
        help="check determinism / seed / concurrency / observability "
             "invariants (VPLxxx rules)",
    )
    lint.set_defaults(handler=lint_cli.run)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 2 usable-input error (missing files, unknown
    vehicle, malformed metrics file, ...); argparse keeps its own
    conventions for unknown commands/flags.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    registry = None
    previous_registry = previous_log = None
    if getattr(args, "metrics_out", None):
        # Fail fast: discovering an unwritable path after a long run
        # would throw the metrics away.
        parent = Path(args.metrics_out).resolve().parent
        if not parent.is_dir():
            print(
                f"error: metrics output directory does not exist: {parent}",
                file=sys.stderr,
            )
            return 2
        registry = obs.MetricsRegistry()
        obs.preregister_pipeline_metrics(registry)
        previous_registry = obs.set_registry(registry)
    if getattr(args, "verbose", 0):
        level = "debug" if args.verbose > 1 else "info"
        previous_log = obs.set_event_log(obs.EventLog(level=level, sink=sys.stderr))

    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if registry is not None:
            try:
                obs.write_metrics(registry, args.metrics_out)
                print(f"metrics -> {args.metrics_out}", file=sys.stderr)
            except OSError as exc:
                print(f"error: cannot write metrics: {exc}", file=sys.stderr)
            obs.set_registry(previous_registry)
        if previous_log is not None:
            obs.set_event_log(previous_log)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into `head` & co. closes stdout early; that's not an error.
        sys.stderr.close()
        sys.exit(0)
