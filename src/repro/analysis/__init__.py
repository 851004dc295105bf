"""Static analysis: the bit-identity contracts as machine-checked rules.

Every engine in the library rests on semantic contracts the test suite can
only spot-check — randomness must flow through the sanctioned word-stream
layer so replays stay bit-identical, telemetry must cost nothing when off,
result-determining code must never read wall clocks or ambient entropy.
This package turns those conventions into an AST-based linter, exposed as
``repro lint`` and ``python -m repro.analysis``.

Rule catalog
------------

``R1`` rng-discipline
    Inside ``engine/``, ``walks/`` and ``graphs/``, no direct ``random.*``
    / ``numpy.random.*`` / ``os.urandom`` calls outside the sanctioned
    wrappers (``MTWordStream``, ``_WordBank``; the
    generator-accepting constructors take a ``random.Random`` and draw
    through its methods).
``R2`` determinism
    No ``time.time()`` / ``datetime.now()`` / ``uuid`` / ``os.environ``
    reads in result-determining modules.  Runner wall-clock and telemetry
    sites carry ``# repro: allow[R2]`` pragmas, making every sanctioned
    exception visible and grep-able.
``R3`` telemetry-overhead
    Telemetry calls (``tel.count`` / ``tel.gauge`` / ``tel.time_add`` /
    ``tel.timed`` / ``tel.event`` / ``tel.progress``) in hot-path modules
    (``engine/*``, ``walks/base.py``) must be dominated by a
    ``tel.enabled`` guard in their enclosing scope.
``R4`` error-discipline
    No bare ``except:`` / ``except Exception: pass`` in library code;
    raised exceptions must be :class:`~repro.errors.ReproError` subclasses
    (or protocol-mandated stdlib types inside dunder methods).
``R5`` spec-hash
    The :class:`~repro.experiments.spec.ExperimentSpec` field set and the
    ``HASH_EXCLUDED_FIELDS`` list must stay mutually consistent — a field
    added without a hash decision is an error.

Suppression: append ``# repro: allow[R1]`` (rule id or name; ``*`` for
all) to the reported line.  The pragma is same-line and explicit by
design — every sanctioned exception stays grep-able.
"""

from repro._lazy import lazy_exports

# Lazy (:mod:`repro._lazy`): ``repro lint``'s argument parser is built by
# every CLI command, and must not load the rule registry to do so.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rules": ("ALL_RULES", "rules_by_selector"),
        "diagnostics": ("Diagnostic", "Severity"),
        "linter": ("lint_file", "lint_paths", "lint_source"),
    },
)
