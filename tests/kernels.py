"""Run fleets on a chosen kernel: the fused C kernel or the numpy path.

``REPRO_NATIVE=0`` is the one switch between the two.  A fleet probes
it when it runs, so :func:`run_on` sets it around ``run_until_cover``.
"""

import pytest

from repro.engine import native


def run_on(use_native: bool, fleet, *args, **kwargs):
    """``fleet.run_until_cover(*args, **kwargs)`` on the fused kernel if
    ``use_native``, else on the numpy path (``REPRO_NATIVE=0``).

    Asserts the fleet really stepped there, so a native parity check can
    never pass on the numpy path.
    """
    try:
        with pytest.MonkeyPatch.context() as mp:
            if use_native:
                mp.delenv("REPRO_NATIVE", raising=False)
            else:
                mp.setenv("REPRO_NATIVE", "0")
            native._reset_probe_for_testing()
            try:
                return fleet.run_until_cover(*args, **kwargs)
            finally:
                assert (fleet._native is not None) == use_native, "fleet ran on the other kernel"
    finally:
        native._reset_probe_for_testing()
