"""Tests for the telemetry layer: core context, heartbeat, JSONL, manifests.

The bit-identity half of the contract (telemetry on == telemetry off,
per engine) lives in ``tests/test_telemetry_identity.py``; this module
covers the instrumentation machinery itself.
"""

import hashlib
import io
import json
import os
from pathlib import Path

import numpy
import pytest

from repro.errors import ReproError
from repro.experiments.spec import ExperimentSpec
from repro.experiments.store import STORE_SCHEMA_VERSION, ResultStore
from repro.sim.runner import TrialOutcome
from repro.telemetry import (
    MANIFEST_SCHEMA_VERSION,
    NULL_TELEMETRY,
    HeartbeatReporter,
    NullTelemetry,
    Telemetry,
    TelemetryJSONLWriter,
    build_manifest,
    get_telemetry,
    peak_rss_bytes,
    session,
    set_telemetry,
    validate_manifest,
    validate_manifest_file,
)


class TestCore:
    def test_default_context_is_null_and_disabled(self):
        tel = get_telemetry()
        assert tel is NULL_TELEMETRY
        assert tel.enabled is False

    def test_null_methods_are_noops(self):
        null = NullTelemetry()
        null.count("x", 5)
        null.gauge("g", 1.0)
        null.time_add("t", 0.5)
        null.event("e", a=1)
        null.progress(step=10)
        assert null.counters == {} and null.gauges == {} and null.timings == {}

    def test_counters_gauges_timings_accumulate(self):
        tel = Telemetry()
        tel.count("a")
        tel.count("a", 4)
        tel.gauge("g", 1.5)
        tel.gauge("g", 2.5)  # last write wins
        tel.time_add("t", 0.25)
        tel.time_add("t", 0.5)
        assert tel.counters["a"] == 5
        assert tel.gauges["g"] == 2.5
        assert tel.timings["t"] == pytest.approx(0.75)

    def test_timed_block_adds_time_and_call_count(self):
        tel = Telemetry()
        with tel.timed("work"):
            pass
        assert tel.timings["work"] >= 0.0
        assert tel.counters["work.calls"] == 1

    def test_snapshot_is_json_ready_and_sorted(self):
        tel = Telemetry()
        tel.count("b", 2)
        tel.count("a", 1)
        tel.gauge("g", 3.0)
        snap = tel.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must serialize

    def test_session_installs_and_restores(self):
        tel = Telemetry()
        assert get_telemetry() is NULL_TELEMETRY
        with session(tel) as active:
            assert active is tel
            assert get_telemetry() is tel
            inner = Telemetry()
            with session(inner):
                assert get_telemetry() is inner
            assert get_telemetry() is tel
        assert get_telemetry() is NULL_TELEMETRY

    def test_session_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with session(Telemetry()):
                raise RuntimeError("boom")
        assert get_telemetry() is NULL_TELEMETRY

    def test_set_telemetry_none_restores_null(self):
        set_telemetry(Telemetry())
        try:
            assert get_telemetry().enabled
        finally:
            set_telemetry(None)
        assert get_telemetry() is NULL_TELEMETRY

    def test_peak_rss_bytes_is_positive_monotone(self):
        first = peak_rss_bytes()
        assert isinstance(first, int) and first > 0
        assert peak_rss_bytes() >= first


class _FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


class TestHeartbeat:
    def test_invalid_interval_rejected(self):
        with pytest.raises(ReproError):
            HeartbeatReporter(0)
        with pytest.raises(ReproError):
            HeartbeatReporter(-1.0)
        with pytest.raises(ReproError):
            HeartbeatReporter("soon")

    def test_silent_until_interval_elapses(self):
        clock = _FakeClock()
        out = io.StringIO()
        hb = HeartbeatReporter(10.0, stream=out, clock=clock)
        clock.now += 9.9
        assert hb.tick(step=100) is None
        assert out.getvalue() == ""
        assert hb.emitted == 0

    def test_emits_with_rate_from_deltas(self):
        clock = _FakeClock()
        out = io.StringIO()
        hb = HeartbeatReporter(10.0, stream=out, clock=clock)
        clock.now += 10.0
        payload = hb.tick(step=50_000, done=30, total=100, unit="vertices", label="walk")
        assert payload is not None
        assert payload["step"] == 50_000
        assert payload["steps_per_sec"] == 5000
        assert payload["pct"] == 30.0
        assert "eta_s" not in payload  # no previous done observation yet
        line = out.getvalue()
        assert line.startswith("[hb walk]")
        assert "step=50,000" in line
        assert "vertices 30.0% (30/100)" in line
        # Second emission: ETA from the done-delta.
        clock.now += 10.0
        payload = hb.tick(step=100_000, done=60, total=100, unit="vertices")
        assert payload["steps_per_sec"] == 5000
        assert payload["eta_s"] == pytest.approx(100.0 / 7.5, abs=0.2)
        assert hb.emitted == 2

    def test_backwards_step_resets_rate_baseline(self):
        clock = _FakeClock()
        hb = HeartbeatReporter(10.0, stream=io.StringIO(), clock=clock)
        clock.now += 10.0
        hb.tick(step=90_000)
        clock.now += 10.0
        payload = hb.tick(step=2_000)  # a new trial restarted the counter
        assert payload["steps_per_sec"] == 200

    def test_progress_mirrors_into_writer_and_counts(self, tmp_path):
        clock = _FakeClock()
        writer = TelemetryJSONLWriter(tmp_path / "t.jsonl")
        tel = Telemetry(
            heartbeat=HeartbeatReporter(5.0, stream=io.StringIO(), clock=clock),
            writer=writer,
        )
        tel.progress(step=10)  # below interval: nothing
        clock.now += 5.0
        tel.progress(step=20)
        assert tel.counters["heartbeat.lines"] == 1
        writer.close()
        lines = [json.loads(l) for l in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["kind"] == "heartbeat"
        assert lines[0]["step"] == 20


class TestJSONLWriter:
    def test_events_stream_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = TelemetryJSONLWriter(path)
        writer.event("trial", trial=0, steps=42)
        writer.event("trial", trial=1, steps=43)
        writer.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["trial"] for l in lines] == [0, 1]
        assert all(l["kind"] == "trial" and "at" in l for l in lines)
        assert writer.events_written == 2

    def test_truncates_previous_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("stale\n")
        TelemetryJSONLWriter(path).close()
        assert path.read_text() == ""

    def test_finish_appends_manifest_and_goes_inert(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = TelemetryJSONLWriter(path)
        writer.event("trial", trial=0)
        writer.finish({"kind": "manifest", "command": "test"})
        assert writer.finished
        writer.event("trial", trial=1)  # dropped, not raised
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["kind"] == "manifest"

    def test_unwritable_path_raises_repro_error(self, tmp_path):
        with pytest.raises(ReproError):
            TelemetryJSONLWriter(tmp_path)  # a directory

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.jsonl"
        TelemetryJSONLWriter(path).close()
        assert path.exists()


class TestManifest:
    def _manifest(self, **kwargs):
        tel = Telemetry()
        tel.count("runner.steps", 123)
        return build_manifest(tel, command="cover", **kwargs)

    def test_build_produces_valid_manifest(self):
        manifest = self._manifest(engine="fleet", walk="srw", backend="regular")
        assert validate_manifest(manifest) is manifest
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["counters"]["runner.steps"] == 123
        assert manifest["engine"] == "fleet"
        assert manifest["heartbeats"] == 0
        assert manifest["peak_rss_bytes"] > 0
        assert manifest["env"]["python"]
        json.dumps(manifest)

    def test_manifest_records_numpy_version_and_cpu_count(self):
        env = self._manifest()["env"]
        assert env["numpy"] == numpy.__version__
        assert env["cpu_count"] == os.cpu_count()

    def test_manifest_records_native_abi_next_to_kernel(self, monkeypatch):
        from repro.engine import native

        native.load()  # the manifest reports a kernel only once probed
        env = self._manifest()["env"]
        if native.available():
            # Package-relative path plus the .so's hash: the same in every
            # checkout, and different for every build.
            so = Path(native.kernel_path())
            assert env["native_kernel"] == {
                "path": f"repro/engine/native/{so.name}",
                "sha256": hashlib.sha256(so.read_bytes()).hexdigest(),
            }
            assert env["native_abi"] == native.ABI_VERSION
        else:
            assert env["native_kernel"] is None and env["native_abi"] is None
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            env = self._manifest()["env"]
            assert env["native_kernel"] is None and env["native_abi"] is None
        finally:
            monkeypatch.undo()
            native._reset_probe_for_testing()

    def test_heartbeat_count_lands_in_manifest(self):
        clock = _FakeClock()
        hb = HeartbeatReporter(1.0, stream=io.StringIO(), clock=clock)
        tel = Telemetry(heartbeat=hb)
        clock.now += 1.0
        tel.progress(step=5)
        manifest = build_manifest(tel, command="cover")
        assert manifest["heartbeats"] == 1

    def test_validate_rejects_bad_schema(self):
        manifest = self._manifest()
        manifest["schema"] = 99
        with pytest.raises(ReproError, match="schema"):
            validate_manifest(manifest)

    def test_validate_rejects_non_integer_counter(self):
        manifest = self._manifest()
        manifest["counters"]["runner.steps"] = "lots"
        with pytest.raises(ReproError, match="counter"):
            validate_manifest(manifest)

    def test_validate_rejects_bad_status(self):
        manifest = self._manifest()
        manifest["status"] = "meh"
        with pytest.raises(ReproError, match="status"):
            validate_manifest(manifest)

    def test_error_status_is_valid(self):
        assert validate_manifest(self._manifest(status="error"))["status"] == "error"

    def test_file_validation_happy_path(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = TelemetryJSONLWriter(path)
        writer.event("trial", trial=0)
        writer.finish(self._manifest())
        manifest = validate_manifest_file(path)
        assert manifest["command"] == "cover"

    def test_file_validation_rejects_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            validate_manifest_file(tmp_path / "absent.jsonl")

    def test_file_validation_rejects_no_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind":"trial"}\n')
        with pytest.raises(ReproError, match="no manifest"):
            validate_manifest_file(path)

    def test_file_validation_rejects_manifest_not_last(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(
            json.dumps(self._manifest()) + "\n" + '{"kind":"trial"}\n'
        )
        with pytest.raises(ReproError, match="not the final line"):
            validate_manifest_file(path)

    def test_file_validation_rejects_duplicate_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        line = json.dumps(self._manifest())
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ReproError, match="more than one"):
            validate_manifest_file(path)

    def test_file_validation_rejects_unparseable_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("not json\n" + json.dumps(self._manifest()) + "\n")
        with pytest.raises(ReproError, match="unparseable"):
            validate_manifest_file(path)

    def test_module_main_exit_codes(self, tmp_path, capsys):
        from repro.telemetry.manifest import main as manifest_main

        path = tmp_path / "run.jsonl"
        TelemetryJSONLWriter(path).finish(self._manifest())
        assert manifest_main([str(path)]) == 0
        assert "manifest ok" in capsys.readouterr().out
        assert manifest_main([str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err


def _spec(**overrides):
    base = dict(
        family="cycle",
        family_params={"n": 16},
        walk="srw",
        trials=3,
        root_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestStoreIntegration:
    def test_peak_rss_bytes_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = _spec()
        outcome = TrialOutcome(
            trial=0, steps=42, extras={}, wall_time=0.5, peak_rss_bytes=123_456_789
        )
        store.record(spec, [outcome])
        record = store.trials_for(spec)[0]
        assert record.peak_rss_bytes == 123_456_789
        assert record.to_outcome().peak_rss_bytes == 123_456_789

    def test_schema_v1_line_is_quarantined_not_reinterpreted(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = _spec()
        store.record(spec, [TrialOutcome(trial=0, steps=42, extras={}, wall_time=0.1)])
        shard = store._shard_path(spec.spec_hash)
        v1 = json.loads(shard.read_text().splitlines()[0])
        v1["schema"] = 1
        v1["trial"] = 1
        v1.pop("peak_rss_bytes", None)
        with shard.open("a") as fh:
            fh.write(json.dumps(v1) + "\n")
        tel = Telemetry()
        with session(tel):
            records = store.trials_for(spec)
        assert sorted(records) == [0]
        assert store.quarantined_count(spec) == 1
        assert tel.counters["store.quarantined_lines"] == 1

    def test_record_manifest_and_listing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        tel = Telemetry()
        tel.count("runner.steps", 7)
        manifest = build_manifest(tel, command="sweep", walk="srw")
        first = store.record_manifest(manifest)
        second = store.record_manifest(manifest)  # same stamp: deduped name
        assert first.exists() and second.exists() and first != second
        listed = store.manifests()
        assert [p for p, _ in listed] == sorted([first, second])
        assert all(m["command"] == "sweep" for _, m in listed)

    def test_scheduler_counts_cached_vs_scheduled(self, tmp_path):
        from repro.experiments.scheduler import run_point

        store = ResultStore(tmp_path / "store")
        spec = _spec(family_params={"n": 12}, trials=2)
        run_point(spec, store=store)  # cold: both trials computed
        tel = Telemetry()
        with session(tel):
            run_point(spec, store=store)  # warm: both cached
        assert tel.counters["scheduler.points"] == 1
        assert tel.counters["scheduler.trials_cached"] == 2
        assert tel.counters.get("scheduler.trials_scheduled", 0) == 0
        assert "store.checkpoints" not in tel.counters


class TestProgressRouting:
    def test_print_progress_goes_to_stderr(self, capsys):
        from repro.experiments import print_progress

        print_progress("working...")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "working...\n"


class TestCLITelemetry:
    def test_cover_with_telemetry_writes_valid_manifest(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cover.jsonl"
        code = main(
            [
                "cover", "--family", "cycle", "--n", "40", "--walk", "srw",
                "--trials", "2", "--seed", "3", "--engine", "fleet",
                "--telemetry", str(path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"telemetry: {path}" in captured.err
        manifest = validate_manifest_file(path)
        assert manifest["command"] == "cover"
        assert manifest["walk"] == "srw"
        assert manifest["engine"] == "fleet"
        assert manifest["status"] == "ok"
        assert manifest["counters"]["runner.trials"] == 2
        # The counters reconcile with the run: total fleet steps == the
        # sum of the per-trial cover times the runner aggregated.
        assert manifest["counters"]["runner.steps"] > 0

    def test_cover_without_flags_is_untouched(self, capsys):
        from repro.cli import main
        from repro.telemetry import get_telemetry

        assert main(["cover", "--family", "cycle", "--n", "30", "--walk", "srw",
                     "--trials", "1", "--seed", "3"]) == 0
        assert get_telemetry() is NULL_TELEMETRY
        assert "telemetry:" not in capsys.readouterr().err

    def test_invalid_heartbeat_interval_errors(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["cover", "--family", "cycle", "--n", "30", "--walk", "srw",
                     "--trials", "1", "--heartbeat", "0"])
        assert code == 2
        assert "heartbeat interval" in capsys.readouterr().err

    def test_verbose_and_quiet_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["-vv", "cover", "--family", "cycle", "--n", "30"]
        )
        assert args.verbose == 2 and args.quiet == 0
        args = build_parser().parse_args(["-q", "store", "ls"])
        assert args.quiet == 1

    def test_sweep_saves_manifest_into_store(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        code = main(
            [
                "sweep", "--family", "cycle", "--sizes", "20", "--walk", "srw",
                "--trials", "1", "--seed", "5", "--store", str(store_dir),
                "--telemetry", str(tmp_path / "sweep.jsonl"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "manifest: " in captured.err
        saved = ResultStore(store_dir).manifests()
        assert len(saved) == 1
        assert saved[0][1]["command"] == "sweep"

    def test_store_ls_manifests_table(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        store = ResultStore(store_dir)
        tel = Telemetry()
        tel.count("runner.steps", 999)
        store.record_manifest(build_manifest(tel, command="sweep", walk="srw"))
        assert main(["store", "ls", "--manifests", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "run manifests" in out
        assert "sweep" in out and "999" in out
