"""Run fleets on a chosen kernel: the fused C kernel or the numpy path.

``REPRO_NATIVE=0`` is the one switch between the two.  A fleet probes
it when it runs, so :func:`run_on` sets it around ``run_until_cover``;
:func:`kernel` sets it around any other block.
"""

from contextlib import contextmanager

import pytest

from repro.engine import native


@contextmanager
def kernel(use_native: bool):
    """Run the block with the fused kernel loadable if ``use_native``,
    else under ``REPRO_NATIVE=0``; the probe is re-read on entry and exit."""
    try:
        with pytest.MonkeyPatch.context() as mp:
            if use_native:
                mp.delenv("REPRO_NATIVE", raising=False)
            else:
                mp.setenv("REPRO_NATIVE", "0")
            native._reset_probe_for_testing()
            yield
    finally:
        native._reset_probe_for_testing()


def run_on(use_native: bool, fleet, *args, **kwargs):
    """``fleet.run_until_cover(*args, **kwargs)`` on the fused kernel if
    ``use_native``, else on the numpy path (``REPRO_NATIVE=0``).

    Asserts the fleet really stepped there, so a native parity check can
    never pass on the numpy path.
    """
    with kernel(use_native):
        try:
            return fleet.run_until_cover(*args, **kwargs)
        finally:
            assert (fleet._native is not None) == use_native, "fleet ran on the other kernel"
