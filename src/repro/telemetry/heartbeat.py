"""Periodic progress lines for long cover runs.

A 265M-step SRW cover on an implicit hypercube runs for minutes with no
output; the :class:`HeartbeatReporter` turns the engines' existing chunk
and block boundaries into a progress line every ``interval`` seconds::

    [hb OracleSRW] 30.1s  step=88,123,456  2,931,000 steps/s  \
vertices 93.21% (15,634,903/16,777,216)  eta 41s  rss 412 MB

Rates and ETA come from deltas between consecutive emissions (steady-state
rate, not lifetime average); RSS is the process peak.  The reporter is
deliberately clock-driven — :meth:`tick` is called at every chunk/block
boundary and early-exits on one monotonic clock read until the interval
elapses, so wiring it into the oracle cover chunks and the fleet's
``_run_block`` loop costs nothing measurable and no walk loop needs
changes.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, Optional

from repro.errors import ReproError
from repro.telemetry.core import peak_rss_bytes

__all__ = ["HeartbeatReporter"]


def _fmt_int(value: int) -> str:
    return f"{value:,}"


def _fmt_eta(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds < 90:
        return f"{seconds}s"
    minutes, sec = divmod(seconds, 60)
    if minutes < 90:
        return f"{minutes}m{sec:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class HeartbeatReporter:
    """Emit one progress line per ``interval`` seconds to ``stream``.

    Parameters
    ----------
    interval:
        Seconds between lines (> 0).  The first line appears one interval
        after construction, so short runs stay silent.
    stream:
        Output stream; None means ``sys.stderr`` resolved at emit time
        (respects test-time stderr capture).
    clock:
        Monotonic clock, injectable for tests.

    :meth:`tick` accepts observations from *different* run phases — the
    runner restarts step counts per trial, fleets report lane progress —
    and resets its rate baselines whenever the step counter moves
    backwards (a new trial started).
    """

    def __init__(
        self,
        interval: float = 10.0,
        stream=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        try:
            interval = float(interval)
        except (TypeError, ValueError):
            raise ReproError(f"heartbeat interval must be a number, got {interval!r}") from None
        if not interval > 0:
            raise ReproError(f"heartbeat interval must be > 0 seconds, got {interval}")
        self.interval = interval
        self.stream = stream
        self.clock = clock
        now = clock()
        self._start = now
        self._last_emit = now
        self._last_step: Optional[int] = None
        self._last_done: Optional[int] = None
        self.emitted = 0

    def tick(
        self,
        *,
        step: int,
        done: Optional[int] = None,
        total: Optional[int] = None,
        unit: str = "",
        label: str = "",
    ) -> Optional[Dict]:
        """Offer an observation; emit (and return the payload) when due.

        Returns None (after one clock read) when the interval has not yet
        elapsed — the hot-path case.
        """
        now = self.clock()
        dt = now - self._last_emit
        if dt < self.interval:
            return None
        step = int(step)
        elapsed = now - self._start
        payload: Dict = {"elapsed_s": round(elapsed, 1), "step": step}
        if label:
            payload["label"] = str(label)
        # Steps/sec over the emission gap; a backwards step counter means a
        # new trial started inside the gap — rate from 0 is the honest floor.
        prev_step = self._last_step
        base_step = prev_step if (prev_step is not None and step >= prev_step) else 0
        sps = (step - base_step) / dt if dt > 0 else 0.0
        payload["steps_per_sec"] = int(round(sps))
        eta: Optional[float] = None
        if done is not None and total:
            done = int(done)
            total = int(total)
            payload["done"] = done
            payload["total"] = total
            if unit:
                payload["unit"] = str(unit)
            payload["pct"] = round(100.0 * done / total, 2)
            prev_done = self._last_done
            if prev_done is not None and prev_done <= done and dt > 0:
                rate = (done - prev_done) / dt
                if rate > 0:
                    eta = (total - done) / rate
                    payload["eta_s"] = round(eta, 1)
        rss = peak_rss_bytes()
        if rss:
            payload["rss_mb"] = round(rss / (1 << 20), 1)

        parts = [
            f"[hb {label}]" if label else "[hb]",
            f"{elapsed:.1f}s",
            f"step={_fmt_int(step)}",
            f"{_fmt_int(int(round(sps)))} steps/s",
        ]
        if done is not None and total:
            parts.append(
                f"{unit or 'done'} {payload['pct']}% ({_fmt_int(done)}/{_fmt_int(total)})"
            )
        if eta is not None:
            parts.append(f"eta {_fmt_eta(eta)}")
        if rss:
            parts.append(f"rss {payload['rss_mb']:.0f} MB")
        stream = self.stream if self.stream is not None else sys.stderr
        print("  ".join(parts), file=stream, flush=True)

        self._last_emit = now
        self._last_step = step
        self._last_done = int(done) if done is not None else None
        self.emitted += 1
        return payload
