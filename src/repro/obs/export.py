"""Metric exporters and the ``stats`` summariser.

Two on-disk formats:

* **Prometheus text exposition** (``.prom`` / ``.txt`` / anything else)
  — scrape-ready; histograms become cumulative ``_bucket{le=...}``
  series plus ``_sum`` / ``_count``.
* **JSON snapshot** (``.json``) — the registry's full state including
  the streaming quantiles Prometheus text cannot carry.

:func:`load_snapshot` reads either format back into the JSON-snapshot
shape (the Prometheus parser reconstructs histogram count/sum/buckets),
and :func:`summarize_snapshot` renders the operator summary printed by
``python -m repro.cli stats``.
"""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.registry import MetricsRegistry

# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # HELP text escapes only backslash and newline (no quotes) per the
    # exposition format.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family, children in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, child in children:
            if family.kind in ("counter", "gauge"):
                lines.append(
                    f"{family.name}{_format_labels(labels)} "
                    f"{_format_value(child.value)}"
                )
            else:  # histogram
                for le, count in child.cumulative_buckets():
                    bucket_labels = {**labels, "le": _format_value(le)}
                    lines.append(
                        f"{family.name}_bucket{_format_labels(bucket_labels)} {count}"
                    )
                lines.append(
                    f"{family.name}_sum{_format_labels(labels)} "
                    f"{_format_value(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_format_labels(labels)} {child.count}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def to_json(registry: MetricsRegistry) -> dict:
    """The registry's JSON-serialisable snapshot."""
    return registry.snapshot()


def write_metrics(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write the registry to ``path``; format chosen by extension.

    ``.json`` gets the JSON snapshot, everything else the Prometheus
    text format.

    The write is atomic (tmp file + fsync + rename), so a crash or a
    concurrent scrape never observes a truncated metrics file — the CLI
    calls this from its error/exit paths, where a half-written file
    would silently corrupt the last run's evidence.
    """
    path = Path(path)
    if path.suffix == ".json":
        text = json.dumps(to_json(registry), indent=2, sort_keys=True) + "\n"
    else:
        text = to_prometheus(registry)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


# ----------------------------------------------------------------------
# Reading (the `stats` subcommand)
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)\s*$")
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    # A left-to-right scan, not chained str.replace: replacement chains
    # mis-handle sequences like '\\' + 'n' (an escaped backslash
    # followed by a literal n), which must decode to '\' + 'n', not a
    # newline.
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_sample_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus(text: str) -> dict:
    """Parse Prometheus text format back into the JSON-snapshot shape.

    Quantiles are not representable in the text format, so histograms
    come back with an empty ``quantiles`` map; ``mean`` is recomputed
    from ``_sum`` / ``_count``.
    """
    kinds: dict[str, str] = {}
    samples: list[tuple[str, dict[str, str], float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                kinds[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ObservabilityError(f"unparseable metrics line: {line!r}")
        name, label_text, value_text = match.groups()
        labels = {
            key: _unescape_label_value(value)
            for key, value in _LABEL_RE.findall(label_text or "")
        }
        samples.append((name, labels, _parse_sample_value(value_text)))

    counters: list[dict] = []
    gauges: list[dict] = []
    histograms: dict[tuple, dict] = {}

    def _histogram_entry(base: str, labels: dict[str, str]) -> dict:
        key = (base, tuple(sorted(labels.items())))
        entry = histograms.get(key)
        if entry is None:
            entry = {
                "name": base,
                "help": "",
                "labels": labels,
                "count": 0,
                "sum": 0.0,
                "min": None,
                "max": None,
                "mean": None,
                "buckets": [],
                "quantiles": {},
            }
            histograms[key] = entry
        return entry

    for name, labels, value in samples:
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and kinds.get(base) == "histogram":
                if suffix == "_bucket":
                    le = labels.pop("le", "+Inf")
                    entry = _histogram_entry(base, labels)
                    entry["buckets"].append(
                        {"le": _parse_sample_value(le), "count": int(value)}
                    )
                elif suffix == "_sum":
                    _histogram_entry(base, labels)["sum"] = value
                else:
                    entry = _histogram_entry(base, labels)
                    entry["count"] = int(value)
                break
        else:
            entry = {"name": name, "help": "", "labels": labels, "value": value}
            if kinds.get(name) == "gauge":
                gauges.append(entry)
            else:
                counters.append(entry)

    for entry in histograms.values():
        entry["buckets"].sort(key=lambda b: b["le"])
        if entry["count"]:
            entry["mean"] = entry["sum"] / entry["count"]
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": list(histograms.values()),
    }


def load_snapshot(path: str | Path) -> dict:
    """Read a metrics file written by :func:`write_metrics` (either format)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        try:
            snapshot = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(snapshot, dict) or "counters" not in snapshot:
            raise ObservabilityError(f"{path} is not a metrics snapshot")
        return snapshot
    return parse_prometheus(text)


# ----------------------------------------------------------------------
# Summarising
# ----------------------------------------------------------------------

def _format_seconds(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def _label_suffix(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    ) + "}"


def summarize_snapshot(snapshot: dict, source: str = "") -> str:
    """Operator summary of a metrics snapshot (``stats`` subcommand body)."""
    lines = [f"=== metrics summary{f': {source}' if source else ''} ==="]

    histograms = snapshot.get("histograms", [])
    if histograms:
        lines.append("latency histograms:")
        for entry in sorted(histograms, key=lambda e: (e["name"], sorted(e["labels"].items()))):
            name = entry["name"] + _label_suffix(entry["labels"])
            is_seconds = entry["name"].endswith("_seconds")
            fmt = _format_seconds if is_seconds else (
                lambda v: "-" if v is None else f"{v:.4g}"
            )
            quantiles = entry.get("quantiles") or {}
            quantile_text = "".join(
                f"  p{float(q) * 100:g} {fmt(value)}"
                for q, value in sorted(quantiles.items(), key=lambda kv: float(kv[0]))
                if value is not None
            )
            lines.append(
                f"  {name}: count {entry['count']}  mean {fmt(entry.get('mean'))}"
                f"  min {fmt(entry.get('min'))}  max {fmt(entry.get('max'))}"
                + quantile_text
            )

    counters = snapshot.get("counters", [])
    if counters:
        lines.append("counters:")
        for entry in sorted(counters, key=lambda e: (e["name"], sorted(e["labels"].items()))):
            lines.append(
                f"  {entry['name']}{_label_suffix(entry['labels'])} "
                f"= {_format_value(entry['value'])}"
            )

    gauges = snapshot.get("gauges", [])
    if gauges:
        lines.append("gauges:")
        for entry in sorted(gauges, key=lambda e: (e["name"], sorted(e["labels"].items()))):
            lines.append(
                f"  {entry['name']}{_label_suffix(entry['labels'])} "
                f"= {_format_value(entry['value'])}"
            )

    if len(lines) == 1:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)
