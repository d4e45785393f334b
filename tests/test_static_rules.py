"""Per-rule tests for the static analyzer: every S3xx rule fires on its
bad fixture and stays silent on the ok twin, reports/SARIF serialize,
and the unified rule registry is consistent across the three families."""

import json
import pathlib

import pytest

from repro.check import (
    CHK_EQUIVALENT,
    DYNAMIC_RULES,
    STATIC_FOR_DYNAMIC,
    STATIC_RULES,
    analyze_path,
    analyze_source,
    rule,
    to_sarif,
)
from repro.check.rules import render_catalog, rules_catalog
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "analyze"

#: bad fixture -> the exact failing (error/warning) rule set it triggers.
BAD_EXPECT = {
    "bad_request_race.py": {"S301"},
    "bad_channel_collision.py": {"S302"},
    "bad_lock_order.py": {"S303"},
    "bad_hint_violation.py": {"S304"},
    "bad_partitioned_inactive.py": {"S305"},
    "bad_partitioned_double_ready.py": {"S305"},
    "bad_rma_epoch.py": {"S306"},
    "bad_rma_race.py": {"S307"},
    "bad_request_leak.py": {"S308"},
    "bad_window_leak.py": {"S309"},
    "bad_collective_overlap.py": {"S310"},
    "bad_rank_collective.py": {"S310"},
    "bad_double_wait.py": {"S311"},
    "bad_cancel_after_complete.py": {"S312"},
}

OK_FIXTURES = sorted(p.name for p in FIXTURES.glob("ok_*.py"))


def failing_rules(report):
    return {f.rule_id for f in report.findings
            if f.severity in ("error", "warning")}


@pytest.mark.parametrize("name", sorted(BAD_EXPECT))
def test_bad_fixture_fires_exactly_its_rule(name):
    report = analyze_path(str(FIXTURES / name))
    assert failing_rules(report) == BAD_EXPECT[name]
    assert not report.clean


@pytest.mark.parametrize("name", OK_FIXTURES)
def test_ok_fixture_is_clean(name):
    report = analyze_path(str(FIXTURES / name))
    assert failing_rules(report) == set()
    assert report.clean  # advice findings never fail a report


def test_rma_epoch_reports_both_violations():
    """Double Lock and stray Unlock are two findings (CHK107 parity)."""
    report = analyze_path(str(FIXTURES / "bad_rma_epoch.py"))
    assert report.counts() == {"S306": 2}


def test_advice_wildcard_fixture():
    report = analyze_path(str(FIXTURES / "advice_wildcard.py"))
    assert report.clean
    assert [f.rule_id for f in report.findings] == ["S313"]
    assert report.findings[0].severity == "advice"


def test_advice_no_hints_fixture():
    report = analyze_path(str(FIXTURES / "advice_no_hints.py"))
    assert report.clean
    assert set(report.counts()) == {"S314", "S315"}


# ------------------------------------------- summaries and hint scopes

#: ``inner`` returns a request; ``outer`` itself returns 5.
NESTED_RETURN = """\
def outer(comm, buf):
    def inner():
        return comm.Isend(buf, 1, 0)
    return 5


def caller(comm, buf):
    x = yield from outer(comm, buf)
    return None
"""

#: ``later`` completes its parameter; ``helper`` only returns ``later``.
NESTED_WAIT = """\
def helper(req):
{body}


def caller(comm, buf):
    req = yield from comm.Isend(buf, 1, 0)
    helper(req)
    return None
"""

#: ``hinted`` asserts no_any_source on its own Info and communicator;
#: ``poller``'s communicator carries no hint.
SEPARATE_INFOS = """\
from repro.mpi import ANY_SOURCE, Info


def poller(proc, buf):
    info = Info()
    comm = yield from proc.comm_world.Dup(info)
    req = yield from comm.Irecv(buf, ANY_SOURCE, 0)
    yield from req.wait()


def hinted(proc, buf):
    info = Info()
    info.set("mpi_assert_no_any_source", "true")
    comm = yield from proc.comm_world.Dup(info)
    req = yield from comm.Isend(buf, 1, 0)
    yield from req.wait()
"""

#: The hinted ``comm`` of one function, then a later unhinted ``comm``.
LATER_SAME_NAME = """\
from repro.mpi import ANY_TAG, Info


def violates(proc, buf):
    info = Info({"mpi_assert_no_any_tag": "true"})
    comm = yield from proc.comm_world.Dup(info)
    yield from comm.Irecv(buf, source=1, tag=ANY_TAG)


def unhinted(proc, buf):
    comm = yield from proc.comm_world.Dup()
    yield from comm.Isend(buf, dest=0, tag=0)
"""


def test_a_nested_return_is_not_its_parents():
    """Only ``outer``'s own ``return 5`` counts: ``x`` is no request."""
    report = analyze_source(NESTED_RETURN, path="nested.py")
    assert report.by_rule("S308") == []


def test_a_nested_wait_does_not_complete_the_parents_argument():
    """``helper`` never waits ``req`` (only the nested ``later`` it
    returns would), so the caller's request leaks, as it does when
    ``helper`` has no nested def at all."""
    nested = analyze_source(NESTED_WAIT.format(
        body="    def later(req):\n        yield from req.wait()\n"
             "    return later"), path="nested.py")
    plain = analyze_source(NESTED_WAIT.format(body="    return None"),
                           path="nested.py")
    for report in (nested, plain):
        [leak] = report.by_rule("S308")
        assert leak.function == "caller"
        assert leak.extra == {"request": "req", "must": True}


def test_hints_belong_to_the_scope_that_binds_the_info():
    """Another function's ``info.set`` does not hint ``poller``'s comm:
    its wildcard is advice (S313), not an S304 error."""
    report = analyze_source(SEPARATE_INFOS, path="infos.py")
    assert report.by_rule("S304") == []
    assert [(f.rule_id, f.line) for f in report.findings] == [("S313", 7)]


def test_a_later_same_named_comm_does_not_hide_a_hint_violation():
    """The table is keyed by scope: ``unhinted``'s ``comm`` does not
    overwrite the one ``violates`` asserted no_any_tag on."""
    report = analyze_source(LATER_SAME_NAME, path="later.py")
    [err] = report.by_rule("S304")
    assert (err.function, err.line) == ("violates", 7)
    assert report.by_rule("S313") == []


def test_pt2pt_hint_violation_test_is_seen_statically():
    """``test_hint_violation_any_tag`` expects ``HintViolationError``
    from an ANY_TAG receive; the analyzer reports the same defect."""
    report = analyze_path(str(pathlib.Path(__file__).parent
                              / "test_mpi_pt2pt.py"))
    assert [f.function for f in report.by_rule("S304")] == [
        "test_hint_violation_any_tag.worker"]


# ----------------------------------------------------- findings/report

def test_finding_describe_and_dict():
    report = analyze_path(str(FIXTURES / "bad_request_race.py"))
    f = report.by_rule("S301")[0]
    assert f.rule_name == "static-request-race"
    assert f.severity == "error"
    text = f.describe()
    assert "bad_request_race.py" in text and "S301" in text
    d = f.to_dict()
    assert d["rule"] == "S301" and d["line"] == f.line


def test_report_schema_mirrors_check_report():
    report = analyze_path(str(FIXTURES / "bad_window_leak.py"))
    d = report.to_dict()
    assert d["schema"] == 1 and d["kind"] == "static"
    assert d["clean"] is False
    assert d["counts"] == {"S309": 1}
    json.loads(report.to_json())  # round-trips


def test_report_merge_and_render():
    a = analyze_path(str(FIXTURES / "bad_request_race.py"))
    b = analyze_path(str(FIXTURES / "ok_request_race.py"))
    merged = a.merge(b)
    assert len(merged.paths) == 2
    assert "S301" in merged.render()


def test_syntax_error_becomes_e999():
    report = analyze_source("def broken(:\n", path="broken.py")
    assert not report.clean
    assert report.errors and report.errors[0]["path"] == "broken.py"
    sarif = to_sarif(report)
    results = sarif["runs"][0]["results"]
    assert any(r["ruleId"] == "E999" for r in results)


# --------------------------------------------------------------- SARIF

def test_sarif_export_structure():
    report = analyze_path(str(FIXTURES / "bad_rma_race.py"))
    sarif = to_sarif(report, version="1.2.3")
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["version"] == "1.2.3"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {r.id for r in STATIC_RULES} <= rule_ids  # full catalog
    result = run["results"][0]
    assert result["ruleId"] == "S307"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"
    assert loc["region"]["startLine"] >= 1


def test_sarif_advice_maps_to_note():
    report = analyze_path(str(FIXTURES / "advice_wildcard.py"))
    result = to_sarif(report)["runs"][0]["results"][0]
    assert result["level"] == "note"


# ------------------------------------------------------------ registry

def test_registry_families():
    assert rule("CHK101").kind == "dynamic"
    assert rule("L201").kind == "lint"
    assert rule("S301").kind == "static"
    assert rule("S301").doc == "docs/static-analysis.md#s301"
    assert rule("CHK101").doc == "docs/checking.md#chk101"


def test_every_dynamic_rule_has_a_static_twin():
    for r in DYNAMIC_RULES:
        assert r.id in STATIC_FOR_DYNAMIC, f"{r.id} has no static twin"
        twin = STATIC_FOR_DYNAMIC[r.id]
        assert r.id in CHK_EQUIVALENT[twin]


def test_catalog_filtering_and_rendering():
    static_only = rules_catalog(("static",))
    assert {r.kind for r in static_only} == {"static"}
    text = render_catalog(("static",))
    assert "twin of CHK101" in text
    assert "S315" in text
    assert "CHK101" not in text.split("twin of CHK101")[0]


def test_advisor_rules_are_advice_severity():
    for rid in ("S313", "S314", "S315"):
        assert rule(rid).severity == "advice"
        assert CHK_EQUIVALENT[rid] == ()


# ------------------------------------------------------------------ CLI

def test_cli_analyze_bad_fixture_fails(capsys):
    status = main(["analyze", str(FIXTURES / "bad_request_race.py")])
    assert status == 1
    assert "S301" in capsys.readouterr().out


def test_cli_analyze_ok_fixture_passes(capsys):
    status = main(["analyze", str(FIXTURES / "ok_request_race.py")])
    assert status == 0
    assert "no static violations" in capsys.readouterr().out


def test_cli_analyze_json_and_sarif(tmp_path, capsys):
    sarif_path = tmp_path / "out.sarif"
    status = main(["analyze", str(FIXTURES / "bad_window_leak.py"),
                   "--json", "--sarif", str(sarif_path)])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"S309": 1}
    sarif = json.loads(sarif_path.read_text())
    assert sarif["version"] == "2.1.0"


def test_cli_analyze_directory(capsys):
    status = main(["analyze", str(FIXTURES)])
    assert status == 1
    out = capsys.readouterr().out
    assert "S301" in out and "S309" in out


def test_cli_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "S301" in out
    assert not any(ln.startswith("CHK") for ln in out.splitlines())
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "CHK101" in out and "docs/checking.md#chk101" in out


def test_cli_analyze_requires_paths(capsys):
    assert main(["analyze"]) == 2
    assert "no programs" in capsys.readouterr().err


def test_cli_check_requires_program(capsys):
    assert main(["check"]) == 2
    assert "program path" in capsys.readouterr().err
