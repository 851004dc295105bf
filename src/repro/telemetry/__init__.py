"""Engine-to-sweep telemetry: counters, heartbeats, and run manifests.

See :mod:`repro.telemetry.core` for the instrumentation contract
(zero overhead when off, never touches RNG, installed as a context
rather than plumbed through factories).
"""

from repro._lazy import lazy_exports
from repro.telemetry.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    peak_rss_bytes,
    session,
    set_telemetry,
)
from repro.telemetry.heartbeat import HeartbeatReporter
from repro.telemetry.jsonl import TelemetryJSONLWriter

# The manifest names load their module on first use (:mod:`repro._lazy`):
# ``python -m repro.telemetry.manifest`` then runs a module the package
# has not imported yet, as ``runpy`` expects.
_LAZY_ALL, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "manifest": (
            "MANIFEST_SCHEMA_VERSION",
            "build_manifest",
            "validate_manifest",
            "validate_manifest_file",
        ),
    },
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "session",
    "peak_rss_bytes",
    "HeartbeatReporter",
    "TelemetryJSONLWriter",
] + _LAZY_ALL
