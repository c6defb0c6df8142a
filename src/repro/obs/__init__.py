"""Process-wide telemetry switchboard: arm/disarm, instruments, export.

The serving stack is instrumented against *this module*, not against a
registry object, so the hot paths pay one module-global check when
telemetry is disarmed (the default):

>>> from repro import obs
>>> if obs.enabled():
...     obs.counter("serve.key_frames").inc()

Arming is per process.  :func:`arm` flips it programmatically;
:func:`arm_from_env` reads the ``REPRO_OBS`` environment variable so
child processes (server, standalone clients) inherit the decision —
``multiprocessing`` children inherit ``os.environ`` under both fork and
spawn.  ``REPRO_OBS`` is a comma-separated feature list:

``REPRO_OBS=metrics``          counters/gauges/histograms/series only
``REPRO_OBS=metrics,trace``    plus the span ring buffer
``REPRO_OBS=metrics,trace,engine``  plus per-plan-step engine timing
``REPRO_OBS=1``                shorthand for metrics,trace

Cross-process aggregation: each process calls :func:`export_artifacts`
before exiting, which drops ``obs-<source>.json`` (metrics snapshot +
chrome trace events) into ``REPRO_OBS_DIR``; ``scripts/obs_report.py``
merges them.  The multiplexing server additionally ships its snapshot
over the runtime report pipe, so telemetry survives even when no
artifact directory is configured.

Invariant: everything in here records; nothing is ever read back into
the computation.  RunStats bit-identity holds with telemetry armed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.obs.trace import NULL_SPAN, NullRecorder, SpanRecorder

__all__ = [
    "ObsConfig",
    "arm",
    "disarm",
    "arm_from_env",
    "enabled",
    "engine_timing",
    "registry",
    "tracer",
    "counter",
    "gauge",
    "histogram",
    "series",
    "span",
    "instant",
    "snapshot",
    "trace_events",
    "export_artifacts",
    "ENV_FEATURES",
    "ENV_DIR",
]

#: Environment variables driving cross-process arming (see module doc).
ENV_FEATURES = "REPRO_OBS"
ENV_DIR = "REPRO_OBS_DIR"


@dataclass(frozen=True)
class ObsConfig:
    """Picklable arming decision, for handing to child-process entrypoints."""

    metrics: bool = True
    trace: bool = False
    engine: bool = False
    trace_capacity: int = 65536

    def env_value(self) -> str:
        """The ``REPRO_OBS`` string equivalent of this config."""
        features = []
        if self.metrics:
            features.append("metrics")
        if self.trace:
            features.append("trace")
        if self.engine:
            features.append("engine")
        return ",".join(features)


# Module state: disarmed by default.  The hot-path guard is a single
# global read (`if obs.enabled():`), which benchmarks as ~40ns — the
# near-zero disabled cost the instrumentation contract requires.
_ARMED = False
_ENGINE = False
_REGISTRY: Optional[MetricsRegistry] = None
_TRACER = NullRecorder()

# Null singletons handed out while disarmed so straggler calls without
# an `enabled()` guard stay harmless (they record into a void registry
# that is never exported).
_NULL_REGISTRY = MetricsRegistry(source="null")


def enabled() -> bool:
    """True when telemetry is armed in this process."""
    return _ARMED


def engine_timing() -> bool:
    """True when per-plan-step engine timing is armed (implies enabled)."""
    return _ENGINE


def arm(metrics: bool = True, trace: bool = False, engine: bool = False,
        trace_capacity: int = 65536, source: Optional[str] = None) -> None:
    """Arm telemetry for this process.

    ``source`` names this process in snapshots/artifacts (defaults to
    ``proc-<pid>``).  Re-arming replaces the registry and tracer.
    """
    global _ARMED, _ENGINE, _REGISTRY, _TRACER
    if source is None:
        source = f"proc-{os.getpid()}"
    _REGISTRY = MetricsRegistry(source=source) if metrics else None
    _TRACER = SpanRecorder(capacity=trace_capacity) if trace else NullRecorder()
    _ENGINE = bool(engine)
    _ARMED = bool(metrics or trace or engine)


def disarm() -> None:
    """Return this process to the zero-cost disarmed state."""
    global _ARMED, _ENGINE, _REGISTRY, _TRACER
    _ARMED = False
    _ENGINE = False
    _REGISTRY = None
    _TRACER = NullRecorder()


def arm_from_env(source: Optional[str] = None) -> bool:
    """Arm from ``REPRO_OBS`` if set; returns whether telemetry armed.

    Called by process entrypoints (server runtime, standalone clients)
    so one environment variable arms an entire process tree.
    """
    raw = os.environ.get(ENV_FEATURES, "").strip()
    if not raw or raw == "0":
        return False
    if raw == "1":
        features = {"metrics", "trace"}
    else:
        features = {f.strip() for f in raw.split(",") if f.strip()}
    metrics = "metrics" in features
    trace = "trace" in features
    engine = "engine" in features
    if not (metrics or trace or engine):
        return False
    arm(metrics=metrics, trace=trace, engine=engine, source=source)
    return True


def arm_from_config(config: Optional["ObsConfig"],
                    source: Optional[str] = None) -> bool:
    """Arm from an explicit :class:`ObsConfig` (child-process handoff).

    Falls back to :func:`arm_from_env` when ``config`` is ``None``.
    """
    if config is None:
        return arm_from_env(source=source)
    if not (config.metrics or config.trace or config.engine):
        return False
    arm(metrics=config.metrics, trace=config.trace, engine=config.engine,
        trace_capacity=config.trace_capacity, source=source)
    return True


# ----------------------------------------------------------------------
# Instrument accessors — null-safe when disarmed
# ----------------------------------------------------------------------
def registry() -> MetricsRegistry:
    """The armed registry, or a void registry when disarmed."""
    return _REGISTRY if _REGISTRY is not None else _NULL_REGISTRY


def tracer():
    """The armed span recorder, or a no-op recorder when disarmed."""
    return _TRACER


def counter(name: str) -> Counter:
    return registry().counter(name)


def gauge(name: str) -> Gauge:
    return registry().gauge(name)


def histogram(name: str) -> Histogram:
    return registry().histogram(name)


def series(name: str) -> Series:
    return registry().series(name)


def span(name: str, **args: Any):
    """Span context manager; :data:`NULL_SPAN` when tracing is off."""
    return _TRACER.span(name, **args)


def instant(name: str, **args: Any) -> None:
    _TRACER.instant(name, **args)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def snapshot() -> Optional[Dict[str, Any]]:
    """This process's metrics snapshot, or ``None`` when no registry."""
    return _REGISTRY.snapshot() if _REGISTRY is not None else None


def trace_events() -> List[Dict[str, Any]]:
    """This process's spans as Chrome trace-event dicts (own pid)."""
    return _TRACER.chrome_events()


def export_artifacts(directory: Optional[str] = None,
                     source: Optional[str] = None) -> Optional[str]:
    """Write ``obs-<source>.json`` for later merging; returns its path.

    No-op (returns ``None``) when disarmed or no directory is known.
    ``directory`` defaults to ``REPRO_OBS_DIR``.
    """
    if not _ARMED:
        return None
    if directory is None:
        directory = os.environ.get(ENV_DIR, "").strip() or None
    if directory is None:
        return None
    if source is None:
        source = _REGISTRY.source if _REGISTRY is not None \
            else f"proc-{os.getpid()}"
    payload = {
        "source": source,
        "pid": os.getpid(),
        "snapshot": snapshot(),
        "trace": trace_events(),
        "trace_dropped": _TRACER.dropped,
    }
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"obs-{source}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path
