"""The simlint CLI contract: repo-clean gate, baseline workflow, formats."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import cli
from repro.analysis.core import (
    Finding,
    lint_paths,
    load_baseline,
    partition,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / ".simlint-baseline.json"


def test_lint_exits_zero_on_head():
    """The acceptance gate: HEAD is clean against the checked-in baseline."""
    code = cli.main(["--fail-on-new", str(PACKAGE),
                     "--baseline", str(BASELINE)])
    assert code == 0


def test_head_baseline_is_small_and_justified():
    """The baseline is empty: every historical finding was fixed or
    pragma'd with a reason, so any finding in ``src`` fails the gate."""
    assert BASELINE.exists()
    assert load_baseline(BASELINE) == set()


def test_new_finding_fails_and_write_baseline_accepts(tmp_path):
    bad = tmp_path / "repro" / "widget.py"
    bad.parent.mkdir()
    bad.write_text("import random\n")
    baseline = tmp_path / "base.json"

    assert cli.main([str(bad), "--baseline", str(baseline)]) == 1
    assert cli.main([str(bad), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
    # Baselined: the same finding no longer fails the gate...
    assert cli.main([str(bad), "--baseline", str(baseline),
                     "--fail-on-new"]) == 0
    # ...but a fresh violation still does.
    bad.write_text("import random\nimport secrets\n")
    assert cli.main([str(bad), "--baseline", str(baseline),
                     "--fail-on-new"]) == 1
    # And --no-baseline surfaces everything again.
    assert cli.main([str(bad), "--baseline", str(baseline),
                     "--no-baseline"]) == 1


def test_stale_baseline_entry_fails_until_the_baseline_shrinks(tmp_path):
    fixed = tmp_path / "repro" / "fixed.py"
    fixed.parent.mkdir()
    fixed.write_text("def f(x):\n    assert x\n")
    other = tmp_path / "repro" / "other.py"
    other.write_text("X = 1\n")
    baseline = tmp_path / "base.json"
    gate = ["--baseline", str(baseline), "--fail-on-new"]
    assert cli.main([str(fixed), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
    assert cli.main([str(fixed), *gate]) == 0

    # The finding is fixed: its entry matches nothing and fails the gate.
    fixed.write_text("def f(x):\n    return x\n")
    assert cli.main([str(fixed), *gate]) == 1
    # An entry for a file that was not linted is not judged.
    assert cli.main([str(other), *gate]) == 0
    # Shrinking the baseline passes again.
    assert cli.main([str(fixed), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
    assert load_baseline(baseline) == set()
    assert cli.main([str(fixed), *gate]) == 0


def test_baseline_fingerprints_survive_line_drift(tmp_path):
    path = tmp_path / "repro" / "mod.py"
    path.parent.mkdir()
    path.write_text("def f(x):\n    assert x\n")
    findings = lint_paths([path])
    assert [f.rule for f in findings] == ["SIM007"]
    baseline_file = tmp_path / "base.json"
    write_baseline(baseline_file, findings)

    # Move the offending line: same fingerprint, still baselined.
    path.write_text("import os\n\n\ndef f(x):\n    assert x\n")
    moved = lint_paths([path])
    new, known = partition(moved, load_baseline(baseline_file))
    assert new == [] and len(known) == 1


def test_json_format(tmp_path, capsys):
    bad = tmp_path / "repro" / "j.py"
    bad.parent.mkdir()
    bad.write_text("import random\n")
    code = cli.main([str(bad), "--no-baseline", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["baselined"] == []
    assert payload["new"][0]["rule"] == "SIM001"
    assert payload["new"][0]["line"] == 1


def test_list_rules(capsys):
    assert cli.main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM001", "SIM004", "SIM007"):
        assert code in out


def test_explain_every_rule(capsys):
    from repro.analysis.rules import ALL_RULES

    for rule in ALL_RULES:
        assert cli.main(["--explain", rule.code]) == 0
        out = capsys.readouterr().out
        assert rule.code in out
        assert rule.summary in out
        # Every rule ships its minimal fixture pair.
        assert "Fires on:" in out
        assert "Silent on:" in out


def test_explain_is_case_insensitive(capsys):
    assert cli.main(["--explain", "sim010"]) == 0
    assert "SIM010" in capsys.readouterr().out


def test_explain_unknown_rule_exits_2(capsys):
    assert cli.main(["--explain", "SIM999"]) == 2
    err = capsys.readouterr().err
    assert "SIM999" in err and "SIM001-SIM012" in err


def test_rule_examples_are_self_consistent():
    """--explain's fixture pair is executable documentation: the bad
    snippet fires its own rule, the good one is silent on it."""
    from repro.analysis.core import LintContext, lint_source
    from repro.analysis.rules import ALL_RULES

    for rule in ALL_RULES:
        bad = lint_source(rule.example_bad, rule.example_path,
                          ctx=LintContext())
        assert rule.code in {f.rule for f in bad}, rule.code
        good = lint_source(rule.example_good, rule.example_path,
                           ctx=LintContext())
        assert rule.code not in {f.rule for f in good}, rule.code


def test_lint_subcommand_registered_in_module_main():
    from repro.__main__ import main as repro_main

    assert repro_main(["lint", "--list-rules"]) == 0


def test_finding_format_is_clickable():
    finding = Finding("SIM001", "repro/x.py", 3, 4, "msg", "import random")
    assert finding.format() == "repro/x.py:3:4: SIM001 msg"


@pytest.mark.parametrize("demo_arg", [["--help"], ["lint", "--help"]])
def test_help_paths_exit_cleanly(demo_arg):
    from repro.__main__ import main as repro_main

    with pytest.raises(SystemExit) as excinfo:
        repro_main(demo_arg)
    assert excinfo.value.code == 0
