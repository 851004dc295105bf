"""Loader for the native kernels (optional C extension).

The stepwise fleet kernels (SRW, E-process, V-process) pay a
fixed number of numpy dispatches *per lockstep step*; the C extension in
``_fused.c`` collapses a whole block of steps into one call, reading
each lane's own int32 CSR arrays (:meth:`~repro.graphs.graph.Graph.csr_arrays`)
in place through per-lane pointer rows.  The same
extension also runs one Steger–Wormald pass of
:func:`~repro.graphs.random_regular.random_regular_graph` and emits the
graph's int32 edge and CSR arrays directly (:func:`load_sw_regular`), and it writes
the Mersenne-Twister state rows of lanes handed in as int seeds — each
row is ``random.Random(seed).getstate()[1]``, built without the
generator (:func:`load_mt_seed`).  This module owns finding and
validating that extension:

* built at install time by the optional setuptools ``Extension`` in
  ``setup.py`` (the build is best-effort: no compiler, no extension, no
  install failure);
* loaded here through :mod:`ctypes` — the .so exports plain C symbols and
  never touches the Python C API, so one build keeps working across
  interpreter patch releases;
* guarded by an ABI stamp (:data:`ABI_VERSION`): a stale binary is
  refused, never mis-read;
* opt-out via ``REPRO_NATIVE=0`` (accepted falsey spellings: ``0``,
  ``false``, ``off``, ``no``), checked per probe so tests can flip it;
* **mandatory fallback**: every caller treats :func:`load` (or
  :func:`load_sw_regular`, :func:`load_mt_seed`) returning ``None`` as
  "use the numpy path" (for graph builds, the Python Steger–Wormald
  pass; for seeded rows, ``random.Random(seed)`` generators).  The
  first silent fallback (extension requested by default but not
  present) emits one :class:`RuntimeWarning` per process; an explicit
  ``REPRO_NATIVE=0`` stays silent.

The numbers are identical either way — the kernels are bit-identical to
the numpy stepwise path (same words drawn, same candidates, same cover
instants) and to the Python graph builder (same words, same edges, same
generator end state) and to ``random.Random`` seeding (same state rows);
only throughput changes.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import threading
import warnings
from typing import Optional

__all__ = [
    "ABI_VERSION",
    "available",
    "disabled",
    "kernel_path",
    "load",
    "load_mt_seed",
    "load_sw_regular",
    "unavailable_reason",
]

#: Must match ``REPRO_FUSED_ABI`` in ``_fused.c``; bumped together whenever
#: an export is added or the parameter layout or semantics change.
ABI_VERSION = 8

_FALSEY = {"0", "false", "off", "no"}

_lock = threading.Lock()
_probed = False
_fn = None
_sw_fn = None
_seed_fn = None
_path: Optional[str] = None
_reason = ""
_warned = False


def disabled() -> bool:
    """Whether ``REPRO_NATIVE`` explicitly opts out of the native kernel."""
    # The switch selects between bit-identical kernels; results are
    # unchanged either way, only throughput.
    return os.environ.get("REPRO_NATIVE", "").strip().lower() in _FALSEY  # repro: allow[R2]


def _find_extension() -> Optional[str]:
    """Path of the built ``_fused`` shared object, or None.

    ``find_spec`` covers every install layout (wheel, editable, in-place
    source build) because the extension lives inside this package.
    (Monkeypatched by the fallback tests to simulate a missing build.)
    """
    try:
        spec = importlib.util.find_spec("repro.engine.native._fused")
    except (ImportError, ValueError):
        return None
    if spec is None or not spec.origin or not os.path.exists(spec.origin):
        return None
    return spec.origin


def _probe():
    """One-time (per env change) load attempt.

    Returns ``(block, sw_regular, mt_seed)`` — every entry point or none.
    """
    global _reason, _path
    _path = None
    none = (None, None, None)
    if disabled():
        _reason = "disabled via REPRO_NATIVE"
        return none
    origin = _find_extension()
    if origin is None:
        _reason = (
            "extension repro.engine.native._fused is not built (install "
            "with a C compiler, or run `python setup.py build_ext "
            "--inplace` from a source checkout)"
        )
        return none
    try:
        lib = ctypes.CDLL(origin)
        abi = lib.repro_fused_abi
        abi.restype = ctypes.c_longlong
        abi.argtypes = []
        got = int(abi())
        if got != ABI_VERSION:
            _reason = (
                f"extension at {origin} has ABI {got}, this build of repro "
                f"needs {ABI_VERSION}; rebuild it"
            )
            return none
        block, sw_regular, mt_seed = (
            lib.repro_fused_block, lib.repro_sw_regular, lib.repro_mt_seed
        )
        for fn in (block, sw_regular):
            fn.restype = ctypes.c_longlong
            fn.argtypes = [ctypes.c_void_p, ctypes.POINTER(ctypes.c_void_p)]
        mt_seed.restype = ctypes.c_longlong
        mt_seed.argtypes = [ctypes.c_longlong, ctypes.c_void_p, ctypes.c_void_p]
    except (OSError, AttributeError) as exc:
        _reason = f"extension at {origin} failed to load: {exc}"
        return none
    _path = origin
    _reason = ""
    return block, sw_regular, mt_seed


def load():
    """The fused block function (ctypes), or None with a fallback reason.

    The probe result is cached; flipping ``REPRO_NATIVE`` re-probes so a
    test (or an operator mid-session) can turn the kernel off and on.
    The first *silent* fallback — kernel wanted by default but missing —
    warns once per process so benchmark numbers are never quietly numpy.
    """
    global _probed, _fn, _sw_fn, _seed_fn, _warned
    with _lock:
        key = disabled()
        if not _probed or key != _probe.__dict__.get("last_disabled"):
            _fn, _sw_fn, _seed_fn = _probe()
            _probe.__dict__["last_disabled"] = key
            _probed = True
            if _fn is None and not key and not _warned:
                _warned = True
                from repro.telemetry import get_telemetry

                tel = get_telemetry()
                if tel.enabled:
                    tel.count("native.silent_fallbacks")
                warnings.warn(
                    f"repro: native fused kernel unavailable ({_reason}); "
                    "fleet engines fall back to the numpy stepwise path and "
                    "random regular graph builds to the Python "
                    "Steger-Wormald pass (identical results, lower "
                    "throughput). Set "
                    "REPRO_NATIVE=0 to silence this warning.",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return _fn


def load_sw_regular():
    """The native Steger–Wormald pass (ctypes), or None like :func:`load`.

    Shares :func:`load`'s probe, opt-out and one-time fallback warning.
    """
    load()
    return _sw_fn


def load_mt_seed():
    """The seeded-row writer (ctypes), or None like :func:`load`.

    ``fn(count, seeds, rows)`` writes row ``i`` of the ``(count, 625)``
    uint32 array ``rows`` as ``random.Random(seeds[i]).getstate()[1]``
    for the uint64 ``seeds``.  Shares :func:`load`'s probe, opt-out and
    one-time fallback warning.
    """
    load()
    return _seed_fn


def available() -> bool:
    """Whether the native kernel is loadable right now."""
    return load() is not None


def unavailable_reason() -> str:
    """Why :func:`load` returned None ('' when it didn't)."""
    load()
    return _reason


def kernel_path() -> Optional[str]:
    """Filesystem path of the loaded extension (None when unavailable)."""
    load()
    return _path


def _reset_probe_for_testing() -> None:
    """Drop the cached probe (tests flip REPRO_NATIVE / monkeypatch)."""
    global _probed, _fn, _sw_fn, _seed_fn, _warned
    with _lock:
        _probed = False
        _fn = None
        _sw_fn = None
        _seed_fn = None
        _warned = False
        _probe.__dict__.pop("last_disabled", None)
