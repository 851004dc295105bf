"""``benchmarks/bench_engine_throughput.py`` never times a sanitized kernel.

ASan/TSan instrumentation slows the fused kernel by an order of
magnitude, so a timed run refuses such a build before measuring
anything; ``--smoke`` is a parity check and still runs on one.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.engine import native

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_engine_throughput.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_engine_throughput", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("symbol", ["__asan_init", "__tsan_init"])
def test_timed_run_refuses_sanitized_kernel(bench, tmp_path, monkeypatch, capsys, symbol):
    fake = tmp_path / "_fused.so"
    fake.write_bytes(b"\x7fELF" + b"\0" * 64 + symbol.encode() + b"\0")
    monkeypatch.setattr(native, "_find_extension", lambda: str(fake))

    def no_timing(*args, **kwargs):
        raise AssertionError("a refused run must not measure anything")

    monkeypatch.setattr(bench, "random_connected_regular_graph", no_timing)
    assert bench.main(["--rounds", "1"]) == 2
    err = capsys.readouterr().err
    assert str(fake) in err and symbol in err


def test_clean_or_missing_kernel_is_accepted(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(native, "_find_extension", lambda: None)
    assert bench.sanitized_kernel() is None
    clean = tmp_path / "_fused.so"
    clean.write_bytes(b"\x7fELF" + b"\0" * 64 + b"repro_fused_block\0")
    monkeypatch.setattr(native, "_find_extension", lambda: str(clean))
    assert bench.sanitized_kernel() is None
