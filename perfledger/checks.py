"""The ledger's own checks: ``python -m pytest perfledger``.

They run every workload at smoke size (no timing assertions) and pin the
refusals: a sanitized kernel, and a directory without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import metrics
import run
from workloads import LEDGER, WORKLOADS

HERE = Path(__file__).resolve().parent


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfledger/run.py"]
    assert spec["paths"] == ["perfledger"]
    assert spec["workloads"] == [{"name": n, "why": WORKLOADS[n].why} for n in LEDGER]
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())
    assert spec["end_to_end"] == [m._asdict() for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    setup = metrics.ALL["setup_s"]
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_golden_covers_every_workload():
    golden = json.loads(bench.GOLDEN_PATH.read_text())
    for scale in ("full", "smoke"):
        assert set(golden[scale]) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke(name):
    run.prepare()
    for trace in (False, True):
        result, problems = run.measure(name, 0, 0, trace, "smoke", minimum=1, setup_repeats=1)
        assert problems == []
        assert run._check(result, trace) == []


def test_sanitized_kernel_is_refused(tmp_path):
    assert run.check_sanitized_refused(tmp_path) == []


def test_sanitized_kernel_stops_a_run(tmp_path, monkeypatch, capsys):
    fake = tmp_path / "_fused.so"
    fake.write_bytes(b"\x7fELF\0__tsan_init\0")
    monkeypatch.setattr(bench, "build_native", lambda: None)
    monkeypatch.setattr(bench, "native_kernel", lambda: fake)
    assert run.main(["--workload", "tiny-many", "--seconds", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert str(fake) in out.err


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfledger", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfledger/run.py", "--workload", "tiny-many",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_compare_flags_only_what_got_worse(tmp_path, capsys):
    def write(path, warm_scale):
        with open(path, "w") as handle:
            for seed in range(3):
                values = {m.name: 1.0 + seed for m in metrics.END_TO_END}
                values["warm_s"] *= warm_scale
                record = {
                    "workload": "tiny-many", "seed": seed, "trace": 0,
                    "metrics": {k: {"value": v, "unit": metrics.ALL[k].unit} for k, v in values.items()},
                }
                handle.write(json.dumps(record) + "\n")

    write(tmp_path / "base.jsonl", 1.0)
    write(tmp_path / "new.jsonl", 1.5)
    assert run.compare(str(tmp_path / "base.jsonl"), str(tmp_path / "new.jsonl")) == 0
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert "WORSE" in rows["warm_s"]
    assert all("WORSE" not in row for key, row in rows.items() if key != "warm_s")
