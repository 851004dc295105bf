"""Tests for :mod:`repro.analysis` — the AST invariant linter.

Fixture trees under ``tests/analysis_fixtures/<rule>/{bad,clean}`` mirror
the package layout the rules scope on (``engine/``, ``sim/``, ...): each
bad twin must fire its rule at known lines, each clean twin must lint
fully clean (all rules, not just its own).
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    Severity,
    lint_paths,
    lint_source,
    rules_by_selector,
)
from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main
from repro.errors import ReproError

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def findings_for(path, **kwargs):
    return lint_paths([path], **kwargs)


def rules_fired(diagnostics):
    return {d.rule for d in diagnostics}


# ---------------------------------------------------------------------------
# Per-rule fixture pairs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"])
def test_bad_fixture_fires_its_rule(rule_id):
    found = findings_for(FIXTURES / rule_id.lower() / "bad")
    assert rule_id in rules_fired(found)
    for diag in found:
        assert diag.line > 0
        assert diag.path.endswith(".py")
        assert diag.rule in {r.id for r in ALL_RULES}


@pytest.mark.parametrize("rule_id", ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8"])
def test_clean_twin_is_silent(rule_id):
    assert findings_for(FIXTURES / rule_id.lower() / "clean") == []


def test_r1_flags_every_entropy_source():
    found = findings_for(FIXTURES / "r1" / "bad")
    messages = "\n".join(d.message for d in found if d.rule == "R1")
    assert "random.random()" in messages
    assert "random.randrange()" in messages
    assert "unseeded random.Random()" in messages
    assert "random.SystemRandom" in messages
    assert "secrets.token_bytes" in messages
    assert "os.urandom" in messages
    assert "numpy.random.rand()" in messages
    assert "numpy.random.default_rng()" in messages
    assert "numpy.random.MT19937()" in messages  # unseeded form only


def test_r1_seeded_random_is_a_warning_not_error():
    found = [d for d in findings_for(FIXTURES / "r1" / "bad") if d.rule == "R1"]
    by_severity = {d.message.split()[0]: d.severity for d in found}
    assert by_severity["random.Random(seed)"] is Severity.WARNING
    assert by_severity["unseeded"] is Severity.ERROR


def test_r2_flags_clocks_uuid_and_environment():
    found = findings_for(FIXTURES / "r2" / "bad")
    messages = "\n".join(d.message for d in found)
    for needle in ("time.time()", "time.perf_counter()", "datetime.datetime.now()",
                   "uuid.uuid4()", "os.getenv", "os.environ", "os.urandom"):
        assert needle in messages, needle


def test_r3_flags_unguarded_and_wrong_branch_calls():
    found = [d for d in findings_for(FIXTURES / "r3" / "bad") if d.rule == "R3"]
    assert len(found) == 5
    methods = {d.message.split(".")[1].split("(")[0] for d in found}
    assert methods == {"count", "gauge", "time_add"}


def test_r4_flags_swallows_and_builtin_raises():
    found = [d for d in findings_for(FIXTURES / "r4" / "bad") if d.rule == "R4"]
    messages = "\n".join(d.message for d in found)
    assert "bare except:" in messages
    assert "except Exception: pass" in messages
    assert "except BaseException: pass" in messages
    for name in ("ValueError", "RuntimeError", "KeyError"):
        assert f"raise {name}" in messages


def test_r5_reports_each_inconsistency_kind():
    found = [d for d in findings_for(FIXTURES / "r5" / "bad") if d.rule == "R5"]
    messages = "\n".join(d.message for d in found)
    assert "'batch_size' has no hash decision" in messages
    assert "'target' is hashed by identity() AND listed" in messages
    assert "'stale_name', which is not an ExperimentSpec field" in messages
    assert "'ghost_field', which is not an ExperimentSpec field" in messages


def test_r6_flags_each_sharing_violation_kind():
    found = [d for d in findings_for(FIXTURES / "r6" / "bad") if d.rule == "R6"]
    messages = "\n".join(d.message for d in found)
    assert "without being frozen" in messages
    assert "cached tuple element" in messages
    assert "aliases a shared tile" in messages
    assert "augmented assignment" in messages
    assert "nbrs.sort() mutates a shared tile" in messages
    assert "setflags(write=True) un-freezes" in messages
    assert "out=view writes into a shared tile" in messages
    assert len(found) == 9


def test_r7_flags_each_unlocked_write_shape():
    found = [d for d in findings_for(FIXTURES / "r7" / "bad") if d.rule == "R7"]
    messages = "\n".join(d.message for d in found)
    assert "handle.write(...)" in messages
    assert "_atomic_write_text(...)" in messages
    assert "os.ftruncate(...)" in messages
    assert len(found) == 3


def test_r8_flags_shapes_references_and_stale_entries():
    found = [d for d in findings_for(FIXTURES / "r8" / "bad") if d.rule == "R8"]
    messages = "\n".join(d.message for d in found)
    assert "payload shape 'TrialSpec'" in messages
    assert "payload shape 'Outcome'" in messages
    assert "class 'Graph'" in messages
    assert "names 'Ghost'" in messages
    assert len(found) == 4


def test_r8_missing_allowlist_is_one_finding():
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from typing import NamedTuple\n"
        "class Spec(NamedTuple):\n"
        "    trial: int\n"
    )
    found = lint_source(source, "sim/runner.py")
    assert [d.rule for d in found] == ["R8"]
    assert "declares no POOL_PAYLOAD_ALLOWLIST" in found[0].message


# ---------------------------------------------------------------------------
# Scope model
# ---------------------------------------------------------------------------


def test_rules_scope_on_package_relative_paths():
    source = "import random\nx = random.random()\n"
    assert rules_fired(lint_source(source, "engine/fleet.py")) == {"R1"}
    # Outside R1's scope the same draw is not an R1 matter.
    assert "R1" not in rules_fired(lint_source(source, "sim/runner.py"))


def test_sanctioned_layers_are_out_of_scope():
    clocky = "import time\nt = time.time()\n"
    assert lint_source(clocky, "telemetry/core.py") == []
    assert lint_source(clocky, "testing/faults.py") == []
    swallower = "try:\n    pass\nexcept Exception:\n    pass\n"
    assert lint_source(swallower, "testing/faults.py") == []
    assert rules_fired(lint_source(swallower, "sim/runner.py")) == {"R4"}


def test_wrapper_classes_may_touch_numpy_random():
    source = (
        "import numpy as np\n"
        "class _WordBank:\n"
        "    def refill(self):\n"
        "        return np.random.Generator(np.random.MT19937(0))\n"
    )
    assert lint_source(source, "engine/fleet.py") == []


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------


def test_pragma_suppresses_by_id_name_and_wildcard():
    base = "import time\nt = time.time(){}\n"
    flagged = lint_source(base.format(""), "sim/runner.py")
    assert rules_fired(flagged) == {"R2"}
    for pragma in ("  # repro: allow[R2]", "  # repro: allow[determinism]",
                   "  # repro: allow[*]"):
        assert lint_source(base.format(pragma), "sim/runner.py") == []
    # A mixed list suppresses through its live half; the dead half warns.
    mixed = lint_source(base.format("  # repro: allow[r1, R2]"), "sim/runner.py")
    assert [d.rule for d in mixed] == ["P2"]


def test_pragma_only_covers_its_own_line():
    source = (
        "import time\n"
        "a = time.time()  # repro: allow[R2]\n"
        "b = time.time()\n"
    )
    found = lint_source(source, "sim/runner.py")
    assert [d.line for d in found] == [3]


def test_pragma_for_a_different_rule_does_not_suppress():
    source = "import time\nt = time.time()  # repro: allow[R1]\n"
    found = lint_source(source, "sim/runner.py")
    # The R2 finding survives, and the dead R1 pragma is itself flagged.
    assert rules_fired(found) == {"P2", "R2"}


def test_pragma_inside_string_literal_is_inert():
    source = 'import time\ns = "# repro: allow[R2]"\nt = time.time()\n'
    assert rules_fired(lint_source(source, "sim/runner.py")) == {"R2"}


def test_unknown_rule_in_pragma_is_itself_a_finding():
    source = "x = 1  # repro: allow[R9]\n"
    found = lint_source(source, "sim/runner.py")
    assert [d.rule for d in found] == ["P1"]
    assert "unknown rule 'r9'" in found[0].message


def test_malformed_pragma_is_itself_a_finding():
    source = "x = 1  # repro: allow R2\n"
    found = lint_source(source, "sim/runner.py")
    assert [d.rule for d in found] == ["P1"]
    assert "malformed" in found[0].message


def test_unused_pragma_is_a_warning():
    source = "import math\nx = math.pi  # repro: allow[R2]\n"
    found = lint_source(source, "sim/runner.py")
    assert [d.rule for d in found] == ["P2"]
    assert found[0].severity is Severity.WARNING
    assert "suppresses no finding" in found[0].message


def test_dead_half_of_pragma_list_is_flagged_individually():
    source = "import time\nt = time.time()  # repro: allow[R2, R7]\n"
    found = lint_source(source, "sim/runner.py")
    assert [d.rule for d in found] == ["P2"]
    assert "allow[r7]" in found[0].message  # the live R2 half stays


def test_unused_pragma_not_reported_under_select():
    # Under --select a pragma for an unselected rule merely looks dead.
    source = "import math\nx = math.pi  # repro: allow[R2]\n"
    found = lint_source(source, "sim/runner.py", rules=rules_by_selector(["R1"]))
    assert found == []


def test_syntax_error_reports_parse_error_diagnostic():
    found = lint_source("def broken(:\n", "sim/runner.py")
    assert [d.rule for d in found] == ["P0"]
    assert found[0].severity is Severity.ERROR


# ---------------------------------------------------------------------------
# Rule selection and severity filtering
# ---------------------------------------------------------------------------


def test_rules_by_selector_accepts_ids_and_names():
    assert [r.id for r in rules_by_selector(["R1"])] == ["R1"]
    assert [r.id for r in rules_by_selector(["determinism", "r4"])] == ["R2", "R4"]
    with pytest.raises(ReproError):
        rules_by_selector(["R9"])


def test_select_restricts_findings():
    bad = FIXTURES / "r1" / "bad"
    only_r2 = findings_for(bad, rules=rules_by_selector(["R2"]))
    assert rules_fired(only_r2) == {"R2"}


# ---------------------------------------------------------------------------
# CLI: exit codes and output formats
# ---------------------------------------------------------------------------


def test_cli_exit_zero_on_clean_tree(capsys):
    assert lint_main([str(FIXTURES / "r1" / "clean")]) == 0


def test_cli_exit_one_on_findings(capsys):
    assert lint_main([str(FIXTURES / "r1" / "bad")]) == 1
    out = capsys.readouterr().out
    assert "R1[rng-discipline]" in out
    assert "finding(s)" in out


def test_cli_exit_two_on_usage_error(tmp_path, capsys):
    assert lint_main(["--select", "R9", str(tmp_path)]) == 2
    assert lint_main([str(tmp_path / "missing.py")]) == 2


def test_cli_fail_on_error_ignores_warnings(tmp_path, capsys):
    module = tmp_path / "engine" / "warned.py"
    module.parent.mkdir()
    module.write_text("import random\nr = random.Random(7)\n")
    assert lint_main([str(tmp_path)]) == 1  # warnings gate by default
    assert lint_main(["--fail-on", "error", str(tmp_path)]) == 0


def test_cli_json_format(capsys):
    code = lint_main(["--format", "json", str(FIXTURES / "r5" / "bad")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert all(d["rule"] == "R5" for d in payload)
    assert {"path", "line", "col", "rule", "name", "severity", "message"} <= set(
        payload[0]
    )


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out
        assert rule.name in out


def test_cli_accepts_multiple_paths(capsys):
    code = lint_main([str(FIXTURES / "r1" / "bad"), str(FIXTURES / "r2" / "bad")])
    assert code == 1
    out = capsys.readouterr().out
    assert "R1[rng-discipline]" in out
    assert "R2[determinism]" in out


def test_cli_defaults_to_src_repro(monkeypatch, capsys):
    monkeypatch.chdir(Path(__file__).parent.parent)
    assert lint_main([]) == 0


def test_cli_fix_pragmas_lists_dead_pragmas(tmp_path, capsys):
    module = tmp_path / "sim" / "mod.py"
    module.parent.mkdir()
    module.write_text("import math\nx = math.pi  # repro: allow[R2]\ny = 1\n")
    assert lint_main(["--fix-pragmas", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "P2[unused-pragma]" in out
    assert "1 removable pragma(s)" in out


def test_cli_fix_pragmas_clean_tree(capsys):
    assert lint_main(["--fix-pragmas", str(FIXTURES / "r1" / "clean")]) == 0
    assert "0 removable pragmas" in capsys.readouterr().out


def test_repro_lint_subcommand(capsys):
    assert repro_main(["lint", str(FIXTURES / "r2" / "clean")]) == 0
    assert repro_main(["lint", str(FIXTURES / "r2" / "bad")]) == 1
    assert "R2[determinism]" in capsys.readouterr().out
    assert repro_main(["lint", "--select", "nope", str(FIXTURES)]) == 2


# ---------------------------------------------------------------------------
# The real tree holds its own contracts
# ---------------------------------------------------------------------------


def test_src_repro_lints_clean():
    assert findings_for(SRC_REPRO) == []


def test_reintroduced_violation_is_caught_in_real_module():
    # Guard against the rules silently losing their teeth on real files:
    # re-lint a real module's source with one injected violation.
    source = (SRC_REPRO / "engine" / "oracle.py").read_text()
    tainted = source + "\n\nimport random\n_bad = random.random()\n"
    found = lint_source(tainted, "engine/oracle.py")
    assert rules_fired(found) == {"R1"}
    assert found[0].line > source.count("\n")


def test_reintroduced_unfreeze_is_caught_in_fleet_module():
    # The R6 canary: un-freeze a shared CSR tile inside the real fleet
    # module and the lint must catch both the un-freeze and the write.
    source = (SRC_REPRO / "engine" / "fleet.py").read_text()
    tainted = source + (
        "\n\ndef _unfreeze_tile(graph):\n"
        "    eids = graph.csr_edge_ids\n"
        "    eids.setflags(write=True)\n"
        "    eids[0] = 7\n"
    )
    found = lint_source(tainted, "engine/fleet.py")
    assert rules_fired(found) == {"R6"}
    assert len(found) == 2
    assert all(d.line > source.count("\n") for d in found)
