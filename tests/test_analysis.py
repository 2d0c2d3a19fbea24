"""The static-analysis framework: every rule positive, negative, and
suppressed against ``tests/analysis_fixtures/``, the CLI contract, and
the tier-1 meta test that the real tree stays clean.

The fixture layout is a convention the coverage meta-test enforces
(mirroring the benchmark smoke map): every registered rule owns a
directory ``analysis_fixtures/<rule_id with - as _>/`` holding at least
one ``bad_*`` file (the rule fires), one ``good_*`` file (it stays
quiet), and one ``suppressed_*`` file (a justified ``# repro: allow``
silences it).  Adding rule #7 without fixtures fails here, not in
review.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import Report, all_rules, analyze_paths
from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parent.parent / "src"

RULE_IDS = [
    "async-purity",
    "backend-seam",
    "exception-hygiene",
    "lock-discipline",
    "resource-lifecycle",
    "wire-codec",
]


def fixture_dir(rule_id: str) -> Path:
    return FIXTURES / rule_id.replace("-", "_")


def run(*paths: Path, rules: list[str] | None = None) -> Report:
    return analyze_paths([str(p) for p in paths], rules)


def rules_fired(report: Report) -> set[str]:
    return {f.rule for f in report.findings}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_registry_holds_exactly_the_documented_rules():
    assert sorted(all_rules()) == RULE_IDS


def test_every_rule_has_metadata():
    for rule_id, rule in all_rules().items():
        assert rule.rule_id == rule_id
        assert rule.title, rule_id
        assert len(rule.rationale) > 40, rule_id


# ---------------------------------------------------------------------------
# backend-seam
# ---------------------------------------------------------------------------


def test_backend_seam_positive():
    report = run(fixture_dir("backend-seam") / "bad_learner.py")
    assert rules_fired(report) == {"backend-seam"}
    messages = "\n".join(f.message for f in report.findings)
    assert len(report.findings) == 5
    assert "import of 'repro.engine'" in messages
    assert "import from 'repro.engine'" in messages
    assert "'evaluate' from 'repro.twig.semantics'" in messages
    assert "get_engine()" in messages
    assert ".evaluate_twig()" in messages


def test_backend_seam_negative():
    report = run(fixture_dir("backend-seam") / "good_learner.py",
                 fixture_dir("backend-seam") / "good_outside_scope.py")
    assert report.ok, report.render_text()


def test_backend_seam_suppressed():
    report = run(fixture_dir("backend-seam") / "suppressed_learner.py")
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["backend-seam"]


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


def test_lock_discipline_positive():
    report = run(fixture_dir("lock-discipline") / "bad_store.py")
    assert rules_fired(report) == {"lock-discipline"}
    assert len(report.findings) == 6
    messages = "\n".join(f.message for f in report.findings)
    assert "write of self.hits" in messages
    assert "read of self._entries" in messages
    assert "not attached to an attribute assignment" in messages
    assert "lock-free annotation is missing its reason" in messages


def test_lock_discipline_closure_counts_as_unlocked():
    report = run(fixture_dir("lock-discipline") / "bad_store.py")
    # The lambda defined under `with self._lock:` may run after the
    # lock is released — its access must be among the findings.
    lambda_line = 23
    assert any(f.line == lambda_line for f in report.findings)


def test_lock_discipline_negative():
    report = run(fixture_dir("lock-discipline") / "good_store.py")
    assert report.ok, report.render_text()


def test_lock_discipline_suppressed():
    report = run(fixture_dir("lock-discipline") / "suppressed_store.py")
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["lock-discipline"]


def test_lock_discipline_columnar_index_positive():
    # The columnar-index shape: flat snapshot arrays plus a guarded
    # result cache.  Declaring a column guarded and probing it without
    # the lock fires, as do unexplained/floating annotations.
    report = run(fixture_dir("lock-discipline") / "bad_columnar_index.py")
    assert rules_fired(report) == {"lock-discipline"}
    assert len(report.findings) == 5
    messages = "\n".join(f.message for f in report.findings)
    assert "read of self.parent" in messages
    assert "read of self._results" in messages
    assert "lock-free annotation is missing its reason" in messages
    assert "not attached to an attribute assignment" in messages


def test_lock_discipline_columnar_index_negative():
    # The discipline the engine's real columnar indexes follow:
    # `# lock-free:` snapshot columns written only in __init__, and a
    # `# guarded-by: _lock` memo touched only under the lock.
    report = run(fixture_dir("lock-discipline") / "good_columnar_index.py")
    assert report.ok, report.render_text()


def test_lock_discipline_delta_cache_positive():
    # The delta-patch shape: a guarded digest-keyed record store probed
    # and published outside the lock, plus a reasonless annotation on
    # the patch counter.
    report = run(fixture_dir("lock-discipline") / "bad_delta_cache.py")
    assert rules_fired(report) == {"lock-discipline"}
    assert len(report.findings) == 3
    messages = "\n".join(f.message for f in report.findings)
    assert "read of self._records" in messages
    assert "lock-free annotation is missing its reason" in messages


def test_lock_discipline_delta_cache_negative():
    # The discipline the fleet router's delta layer follows: record
    # store and byte gauge guarded, loop-thread counters lock-free with
    # written reasons.
    report = run(fixture_dir("lock-discipline") / "good_delta_cache.py")
    assert report.ok, report.render_text()


# ---------------------------------------------------------------------------
# async-purity
# ---------------------------------------------------------------------------


def test_async_purity_positive():
    report = run(fixture_dir("async-purity") / "bad_async.py")
    assert rules_fired(report) == {"async-purity"}
    assert len(report.findings) == 4
    messages = "\n".join(f.message for f in report.findings)
    assert "time.sleep()" in messages
    assert ".result()" in messages
    assert "await while a synchronous lock is held" in messages
    assert "WorkloadClient()" in messages


def test_async_purity_negative():
    report = run(fixture_dir("async-purity") / "good_async.py")
    assert report.ok, report.render_text()


def test_async_purity_suppressed():
    report = run(fixture_dir("async-purity") / "suppressed_async.py")
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["async-purity"]


# ---------------------------------------------------------------------------
# wire-codec
# ---------------------------------------------------------------------------


def test_wire_codec_positive():
    report = run(fixture_dir("wire-codec") / "bad_wire.py")
    assert rules_fired(report) == {"wire-codec"}
    assert len(report.findings) == 4
    messages = "\n".join(f.message for f in report.findings)
    assert "encode_foo has no matching decode_foo" in messages
    assert "decode_bar has no matching encode_bar" in messages
    assert "appears in both FRAME_TYPES and RECORD_TYPES" in messages
    assert '"frame_not_registered"' in messages


def test_wire_codec_negative():
    report = run(fixture_dir("wire-codec") / "good_wire.py")
    assert report.ok, report.render_text()


def test_wire_codec_flags_unregistered_tag_in_sibling_module():
    report = run(fixture_dir("wire-codec") / "good_wire.py",
                 fixture_dir("wire-codec") / "bad_user.py")
    assert [f.rule for f in report.findings] == ["wire-codec"]
    assert "not_in_any_registry" in report.findings[0].message
    assert report.findings[0].path.endswith("bad_user.py")


def test_wire_codec_suppressed():
    report = run(fixture_dir("wire-codec") / "suppressed_wire.py")
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["wire-codec"]


# ---------------------------------------------------------------------------
# exception-hygiene
# ---------------------------------------------------------------------------


def test_exception_hygiene_positive():
    report = run(fixture_dir("exception-hygiene") / "bad_handler.py")
    assert rules_fired(report) == {"exception-hygiene"}
    assert len(report.findings) == 3
    messages = "\n".join(f.message for f in report.findings)
    assert "bare `except:`" in messages
    assert "neither re-raises nor uses" in messages


def test_exception_hygiene_negative():
    report = run(fixture_dir("exception-hygiene") / "good_handler.py",
                 fixture_dir("exception-hygiene") / "good_proxy.py",
                 fixture_dir("exception-hygiene") / "good_outside_scope.py")
    assert report.ok, report.render_text()


def test_exception_hygiene_suppressed():
    report = run(fixture_dir("exception-hygiene") / "suppressed_handler.py")
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["exception-hygiene"]


# ---------------------------------------------------------------------------
# resource-lifecycle
# ---------------------------------------------------------------------------


def test_resource_lifecycle_positive():
    report = run(fixture_dir("resource-lifecycle") / "bad_leaks.py")
    assert rules_fired(report) == {"resource-lifecycle"}
    assert len(report.findings) == 5
    messages = "\n".join(f.message for f in report.findings)
    assert "result is discarded" in messages
    assert "used inline and discarded" in messages
    assert "never closed and never escapes" in messages
    assert "closed only on the straight-line path" in messages
    assert "defines no close-like method" in messages


def test_resource_lifecycle_negative():
    report = run(fixture_dir("resource-lifecycle") / "good_leaks.py",
                 fixture_dir("resource-lifecycle") / "good_retry_loop.py")
    assert report.ok, report.render_text()


def test_resource_lifecycle_suppressed():
    report = run(fixture_dir("resource-lifecycle") / "suppressed_leaks.py")
    assert report.ok
    assert [f.rule for f in report.suppressed] == ["resource-lifecycle"]


# ---------------------------------------------------------------------------
# Framework: suppression hygiene, parse errors, module headers
# ---------------------------------------------------------------------------


def test_reasonless_suppression_is_a_finding_and_does_not_suppress(tmp_path):
    src = tmp_path / "sloppy.py"
    src.write_text(
        "# repro-module: repro.learning.sloppy\n"
        "from repro.engine import Engine  # repro: allow[backend-seam]\n")
    report = run(src)
    assert sorted(f.rule for f in report.findings) == \
        ["backend-seam", "suppression"]
    assert not report.suppressed


def test_suppression_in_string_literal_is_inert(tmp_path):
    src = tmp_path / "stringly.py"
    src.write_text(
        "# repro-module: repro.learning.stringly\n"
        'NOTE = "# repro: allow[backend-seam] not a real comment"\n'
        "from repro.engine import Engine\n")
    report = run(src)
    assert [f.rule for f in report.findings] == ["backend-seam"]


def test_parse_error_is_reported_not_raised(tmp_path):
    src = tmp_path / "broken.py"
    src.write_text("def half(:\n")
    report = run(src)
    assert [f.rule for f in report.findings] == ["parse-error"]


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError, match="no-such-rule"):
        run(fixture_dir("backend-seam") / "good_learner.py",
            rules=["no-such-rule"])


def test_rule_selection_restricts_the_run():
    bad = fixture_dir("backend-seam") / "bad_learner.py"
    report = run(bad, rules=["lock-discipline"])
    assert report.ok  # backend-seam not selected, so nothing fires
    assert report.rule_ids == ["lock-discipline"]


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


def test_cli_exits_nonzero_on_violations(capsys):
    rc = main([str(fixture_dir("backend-seam") / "bad_learner.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "[backend-seam]" in out
    assert "violation(s)" in out


def test_cli_exits_zero_on_clean_tree(capsys):
    rc = main([str(fixture_dir("backend-seam") / "good_learner.py")])
    assert rc == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_output(capsys):
    rc = main(["--json",
               str(fixture_dir("backend-seam") / "bad_learner.py")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["rules"] == RULE_IDS
    assert {f["rule"] for f in payload["findings"]} == {"backend-seam"}


def test_cli_list_rules(capsys):
    rc = main(["--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert f"{rule_id}:" in out
    assert "repro: allow[rule-id]" in out


def test_cli_show_suppressed(capsys):
    rc = main(["--show-suppressed",
               str(fixture_dir("backend-seam") / "suppressed_learner.py")])
    assert rc == 0
    assert "(suppressed)" in capsys.readouterr().out


def test_cli_rejects_unknown_rule_id():
    with pytest.raises(SystemExit) as excinfo:
        main(["--rules", "no-such-rule",
              str(fixture_dir("backend-seam") / "good_learner.py")])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# Meta: fixture coverage and the real tree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_every_rule_has_fixture_coverage(rule_id):
    directory = fixture_dir(rule_id)
    assert directory.is_dir(), \
        f"rule {rule_id!r} has no fixture directory {directory}"
    names = [p.name for p in directory.glob("*.py")]
    for prefix in ("bad_", "good_", "suppressed_"):
        assert any(n.startswith(prefix) for n in names), \
            f"rule {rule_id!r} is missing a {prefix}* fixture"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_every_bad_fixture_fires_only_its_own_rule(rule_id):
    directory = fixture_dir(rule_id)
    for bad in sorted(directory.glob("bad_*.py")):
        # Sibling bad_* files of cross-module rules need the rule's good
        # context module alongside (e.g. the wire registry declarations).
        goods = sorted(directory.glob("good_wire.py"))
        report = run(*goods, bad) if goods else run(bad)
        fired = {f.rule for f in report.findings
                 if f.path.endswith(bad.name)}
        assert fired == {rule_id}, \
            f"{bad.name}: fired {fired or 'nothing'}"


def test_real_tree_is_clean():
    report = run(SRC)
    assert report.ok, report.render_text()
    # The justified exemptions stay visible: the real tree carries a
    # handful of suppressions, every one with a written reason.
    assert report.suppressed, "expected documented suppressions in src/"
    assert report.n_modules > 50
