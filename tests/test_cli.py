"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestFigure1Command:
    def test_tiny_sweep_prints_table_and_fits(self, capsys):
        code = main(
            [
                "figure1",
                "--sizes", "150", "300",
                "--degrees", "3", "4",
                "--trials", "2",
                "--seed", "11",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 1" in out
        assert "E d=3" in out and "E d=4" in out
        assert "Growth-model fits" in out


class TestFigure1Orchestration:
    def test_engine_and_workers_flags_accepted(self, capsys):
        code = main(
            [
                "figure1",
                "--sizes", "60", "120",
                "--degrees", "4",
                "--trials", "2",
                "--seed", "7",
                "--engine", "array",
                "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 1" in out
        assert "scheduled" in out  # orchestrator accounting line

    def test_array_engine_reproduces_reference_tables(self, capsys):
        args = ["figure1", "--sizes", "60", "120", "--degrees", "3", "4",
                "--trials", "2", "--seed", "13"]
        assert main(args + ["--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(args + ["--engine", "array"]) == 0
        assert capsys.readouterr().out == reference_out

    def test_store_reused_across_invocations(self, capsys, tmp_path):
        store = str(tmp_path / "fig-store")
        args = ["figure1", "--sizes", "60", "120", "--degrees", "4",
                "--trials", "2", "--seed", "5", "--store", store]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "4 scheduled, 0 cached" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "0 scheduled, 4 cached" in warm
        # identical tables modulo the accounting line
        assert cold.split("\n\n")[:-1] == warm.split("\n\n")[:-1]


class TestSweepCommand:
    def _args(self, store, extra=()):
        return [
            "sweep", "--family", "cycle", "--sizes", "20", "40",
            "--walk", "srw", "--trials", "2", "--seed", "3",
            "--store", store, *extra,
        ]

    def test_cold_then_warm_counts(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        assert main(self._args(store)) == 0
        out = capsys.readouterr().out
        assert "4 scheduled, 0 cached" in out
        assert "cycle(n=20)" in out
        assert main(self._args(store)) == 0
        assert "0 scheduled, 4 cached" in capsys.readouterr().out

    def test_warm_sweep_reads_each_shard_once(self, capsys, tmp_path, monkeypatch):
        # The printed table comes from the sweep's own aggregates, not a
        # second pass over the store.
        from repro.experiments import ResultStore

        store = str(tmp_path / "s")
        assert main(self._args(store)) == 0
        cold = capsys.readouterr().out
        reads = []
        load_shard = ResultStore._load_shard

        def counted(self, spec_hash):
            reads.append(spec_hash)
            return load_shard(self, spec_hash)

        monkeypatch.setattr(ResultStore, "_load_shard", counted)
        assert main(self._args(store)) == 0
        warm = capsys.readouterr().out
        assert "0 scheduled, 4 cached" in warm
        assert len(reads) == len(set(reads)) == 2  # one per point
        assert warm.splitlines()[1:] == cold.splitlines()[1:]

    def test_resume_flag_accepted(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        assert main(self._args(store)) == 0
        capsys.readouterr()
        assert main(self._args(store, extra=["--resume"])) == 0
        assert "0 scheduled" in capsys.readouterr().out

    def test_trial_topup_is_incremental(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        assert main(self._args(store)) == 0
        capsys.readouterr()
        args = self._args(store)
        args[args.index("--trials") + 1] = "5"
        assert main(args) == 0
        assert "6 scheduled, 4 cached" in capsys.readouterr().out

    def test_degrees_rejected_for_non_regular(self, capsys, tmp_path):
        code = main(["sweep", "--family", "cycle", "--sizes", "20", "--degrees", "3",
                     "--walk", "srw", "--trials", "1", "--store", str(tmp_path / "s")])
        assert code == 2
        assert "--degrees applies only" in capsys.readouterr().err

    def test_sizes_rejected_for_lps(self, capsys, tmp_path):
        code = main(["sweep", "--family", "lps", "--sizes", "1000",
                     "--walk", "srw", "--trials", "1", "--store", str(tmp_path / "s")])
        assert code == 2
        assert "--sizes does not apply" in capsys.readouterr().err

    def test_force_recomputes(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        assert main(self._args(store)) == 0
        capsys.readouterr()
        assert main(self._args(store, extra=["--force"])) == 0
        assert "4 scheduled, 0 cached" in capsys.readouterr().out


class TestExecutionFlagsCheckedFirst:
    """Bad execution flags exit 2 before any graph is built or store read."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        from repro import cli
        from repro.experiments import FAMILY_BUILDERS, ResultStore

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        monkeypatch.setattr(cli, "_build_family_graph", refuse)
        for family, (params, _builder) in list(FAMILY_BUILDERS.items()):
            monkeypatch.setitem(FAMILY_BUILDERS, family, (params, refuse))
        monkeypatch.setattr(ResultStore, "trials_for", refuse)

    def _command(self, name, tmp_path):
        if name == "cover":
            return ["cover", "--family", "regular", "--n", "200000", "--walk", "srw",
                    "--engine", "fleet"]
        return ["sweep", "--family", "regular", "--sizes", "200000", "--walk", "srw",
                "--engine", "fleet", "--store", str(tmp_path / "s")]

    @pytest.mark.parametrize("command", ["cover", "sweep"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--workers", "0", "error: workers must be >= 1, got 0"),
            ("--fleet-size", "0", "error: fleet_size must be >= 1, got 0"),
            ("--retries", "-1", "error: retries must be >= 0, got -1"),
            ("--trial-timeout", "0", "error: trial_timeout must be > 0 seconds, got 0.0"),
        ],
    )
    def test_invalid_flag_exits_2_without_work(
        self, capsys, tmp_path, command, flag, value, message
    ):
        code = main(self._command(command, tmp_path) + [flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "scheduled" not in err

    def test_walk_without_engine_rejected_before_store_diff(self, capsys, tmp_path):
        args = self._command("sweep", tmp_path)
        args[args.index("srw")] = "rotor"
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "walk 'rotor' has no 'fleet' engine" in err
        assert "scheduled" not in err


class TestLookupSeams:
    """Profilers wrap these module-level names; the program must read them
    at call time, so a wrapped entry is the one that runs."""

    def test_fleet_engines_entry_is_what_resolves(self, monkeypatch):
        import repro.engine

        def traced(*args, **kwargs):
            raise AssertionError("not called here")

        monkeypatch.setitem(repro.engine.FLEET_ENGINES, "srw", traced)
        assert repro.engine.resolve_walk_factory("srw", "fleet") is traced

    def test_sweep_command_calls_patched_run_sweep(self, capsys, tmp_path, monkeypatch):
        from repro import cli

        calls = []
        real = cli.run_sweep

        def traced(*args, **kwargs):
            calls.append(args[0].name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_sweep", traced)
        args = ["sweep", "--family", "cycle", "--sizes", "20", "--walk", "srw",
                "--trials", "1", "--seed", "3", "--store", str(tmp_path / "s")]
        assert main(args) == 0
        assert calls == ["cycle-srw-vertices"]
        assert "1 scheduled" in capsys.readouterr().out

    def test_warm_point_runs_no_trials(self, capsys, tmp_path, monkeypatch):
        from repro.sim import runner

        args = ["sweep", "--family", "cycle", "--sizes", "20", "--walk", "srw",
                "--trials", "2", "--seed", "3", "--engine", "fleet",
                "--store", str(tmp_path / "s")]
        calls = []
        real = runner.run_trials

        def traced(*a, **k):
            calls.append(k["trial_indices"])
            return real(*a, **k)

        monkeypatch.setattr(runner, "run_trials", traced)
        assert main(args) == 0
        assert calls == [[0, 1]]
        assert main(args) == 0
        assert calls == [[0, 1]]  # the warm re-run schedules nothing
        assert "0 scheduled, 2 cached" in capsys.readouterr().out


class TestReportAndStoreCommands:
    def test_report_runs_nothing_and_matches_sweep_table(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        sweep_args = ["sweep", "--family", "cycle", "--sizes", "20",
                      "--walk", "srw", "--trials", "2", "--seed", "3",
                      "--store", store]
        assert main(sweep_args) == 0
        sweep_out = capsys.readouterr().out
        report_args = ["report", "--family", "cycle", "--sizes", "20",
                       "--walk", "srw", "--trials", "2", "--seed", "3",
                       "--store", store]
        assert main(report_args) == 0
        report_out = capsys.readouterr().out
        assert report_out.strip() in sweep_out

    def test_report_on_cold_store_errors(self, capsys, tmp_path):
        args = ["report", "--family", "cycle", "--sizes", "20", "--walk", "srw",
                "--trials", "2", "--seed", "3", "--store", str(tmp_path / "empty")]
        assert main(args) == 2
        assert "missing trials" in capsys.readouterr().err

    def test_store_ls_and_gc(self, capsys, tmp_path):
        store = str(tmp_path / "s")
        assert main(["sweep", "--family", "cycle", "--sizes", "20", "--walk", "srw",
                     "--trials", "2", "--seed", "3", "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "cycle(n=20)" in out
        assert "quarantined lines : 0" in out
        assert main(["store", "gc", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "records kept" in out


class TestCoverCommand:
    def test_eprocess_on_regular(self, capsys):
        code = main(
            ["cover", "--family", "regular", "--n", "80", "--degree", "4",
             "--walk", "eprocess", "--trials", "2", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean steps" in out

    def test_edge_target_on_cycle(self, capsys):
        code = main(
            ["cover", "--family", "cycle", "--n", "30", "--walk", "srw",
             "--target", "edges", "--trials", "2", "--seed", "4"]
        )
        assert code == 0
        assert "edges cover time" in capsys.readouterr().out

    def test_every_walk_runs(self, capsys):
        for walk in ("srw", "rotor", "rwc2", "vprocess", "least-used", "oldest-first"):
            code = main(
                ["cover", "--family", "cycle", "--n", "16", "--walk", walk,
                 "--trials", "1", "--seed", "5"]
            )
            assert code == 0, walk

    def test_array_engine_matches_reference_output(self, capsys):
        args = ["cover", "--family", "regular", "--n", "60", "--degree", "4",
                "--walk", "srw", "--trials", "3", "--seed", "9"]
        assert main(args + ["--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(args + ["--engine", "array"]) == 0
        array_out = capsys.readouterr().out
        assert array_out == reference_out

    def test_workers_flag_runs(self, capsys):
        code = main(
            ["cover", "--family", "cycle", "--n", "20", "--walk", "eprocess",
             "--trials", "4", "--seed", "2", "--workers", "2"]
        )
        assert code == 0
        assert "mean steps" in capsys.readouterr().out

    def test_workers_supported_for_reference_only_walks(self, capsys):
        # Registry factories are module-level (picklable), so walks without
        # array twins still fan out across a pool.
        args = ["cover", "--family", "cycle", "--n", "20", "--walk", "rotor",
                "--trials", "4", "--seed", "2"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_array_engine_rejects_unsupported_walk(self, capsys):
        # vprocess has no array twin; the error must name the walk, its
        # engines, and the walks that do support the request — never fall
        # back to the reference path silently.
        code = main(
            ["cover", "--family", "cycle", "--n", "12", "--walk", "vprocess",
             "--trials", "1", "--seed", "5", "--engine", "array"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "vprocess" in err
        assert "reference" in err

    def test_fleet_engine_rejects_unsupported_walk(self, capsys):
        code = main(
            ["cover", "--family", "cycle", "--n", "12", "--walk", "rotor",
             "--trials", "1", "--seed", "5", "--engine", "fleet"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "rotor" in err
        assert "fleet" in err

    def test_fleet_engine_runs_eprocess(self, capsys):
        code = main(
            ["cover", "--family", "cycle", "--n", "12", "--walk", "eprocess",
             "--trials", "2", "--seed", "5", "--engine", "fleet"]
        )
        assert code == 0
        fleet_out = capsys.readouterr().out
        code = main(
            ["cover", "--family", "cycle", "--n", "12", "--walk", "eprocess",
             "--trials", "2", "--seed", "5", "--engine", "reference"]
        )
        assert code == 0
        assert capsys.readouterr().out == fleet_out


class TestSpectralCommand:
    def test_profile_printed(self, capsys):
        code = main(["spectral", "--family", "complete", "--n", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda_2" in out
        assert "conductance" in out


class TestGoodnessCommand:
    def test_cycle_ell_equals_n(self, capsys):
        code = main(["goodness", "--family", "cycle", "--n", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ell" in out
        assert "8" in out

    def test_limit_enforced(self, capsys):
        code = main(
            ["goodness", "--family", "cycle", "--n", "500", "--limit", "64", "--seed", "1"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStarsCommand:
    def test_census_runs(self, capsys):
        code = main(["stars", "--n", "150", "--r", "3", "--trials", "2", "--seed", "9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean stars" in out
        assert "(r-2)/(r-1)" in out
