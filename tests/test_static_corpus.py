"""Corpus-level guarantees of the static analyzer: the shipped drivers
analyze clean (zero false positives), the deliberately broken scenario
app is flagged, cross-validation against the dynamic checker scores
perfect precision/recall over the fixture corpus, and the analyzer is a
deterministic pure function that never executes its target."""

import hashlib
import importlib
import inspect
import os
import pathlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.check import analyze_path, analyze_paths, analyze_source
from repro.check.static_.crossval import (
    DYNAMIC_EXEMPT,
    corpus_paths,
    cross_validate,
    render_crossval,
)
from repro.check.static_.model import API

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "analyze"

APP_PACKAGES = ("device", "graph", "legion", "nwchem", "stencil", "vasp")


#: sha-256 of ``analyze_paths(corpus + fixtures).to_json()`` with paths
#: relative to the repository root. Any change to a verdict, message,
#: line or advisor summary on the shipped corpus or the fixtures moves
#: it; re-pin only with that verdict diff in hand.
CORPUS_SHA256 = \
    "6e1b1059485c2d1beab537a3c73fad644008dd3f13d84ae34103b6fc2336a774"

#: The modules whose public names the analyzer may model.
API_MODULES = ("repro.mpi", "repro.mpi.rma", "repro.mpi.partitioned",
               "repro.mpi.endpoints", "repro.runtime", "repro.sim")


def corpus_files():
    return corpus_paths(str(ROOT / "examples"))


def failing(report):
    return [f for f in report.findings
            if f.severity in ("error", "warning")]


# ------------------------------------------------- zero false positives

@pytest.mark.parametrize("pkg", APP_PACKAGES)
def test_app_driver_analyzes_clean(pkg):
    files = sorted((ROOT / "src" / "repro" / "apps" / pkg).glob("*.py"))
    assert files
    report = analyze_paths([str(p) for p in files])
    assert failing(report) == [], report.render()


def test_whole_corpus_is_clean():
    report = analyze_paths(corpus_files())
    assert report.clean, report.render()
    assert not report.errors


def test_corpus_and_fixture_report_is_pinned(monkeypatch):
    """The analyzer's full JSON report over the shipped corpus and the
    fixtures is byte-for-byte the pinned one."""
    monkeypatch.chdir(ROOT)
    paths = [os.path.relpath(p, ROOT) for p in corpus_paths()]
    assert paths and all(p.endswith(".py") for p in paths)
    paths += sorted(str(p.relative_to(ROOT))
                    for p in FIXTURES.glob("*.py"))
    text = analyze_paths(paths).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256


def test_every_modeled_name_is_public_api():
    """Each name the analyzer models is exported by the library (in a
    module's ``__all__``, or a public attribute of an exported class):
    a census that deletes a name must delete it from ``API`` too."""
    public: set[str] = set()
    for name in API_MODULES:
        module = importlib.import_module(name)
        for export in module.__all__:
            public.add(export)
            obj = getattr(module, export)
            if inspect.isclass(obj):
                public.update(a for a in dir(obj) if not a.startswith("_"))
    assert sorted(set(API) - public) == []


def test_examples_analyze_clean():
    files = sorted((ROOT / "examples").glob("*.py"))
    assert files
    report = analyze_paths([str(p) for p in files])
    assert failing(report) == [], report.render()


# ------------------------------------------------------ true positives

def test_racer_scenario_app_is_flagged():
    """The deliberately broken campaign app carries exactly one defect:
    the CHK101 request race, which the analyzer must see ahead of any
    run as its static twin S301 — and nothing else."""
    report = analyze_path(str(ROOT / "src" / "repro" / "scenarios"
                              / "apps.py"))
    assert report.counts() == {"S301": 1}
    finding = report.by_rule("S301")[0]
    assert "poker" in finding.function


# ------------------------------------------------------------- advisor

def test_advisor_verdicts_match_paper_stories():
    """The advisor reproduces the paper's mechanism guidance: legion's
    wildcard polling blocks tags/per-thread-comms but endpoints work;
    msgrate's mechanisms — resolved in ``apps/channels.py`` since it runs
    on the app harness — already assert hints and use endpoints, and the
    driver itself is clean."""
    legion = analyze_path(str(ROOT / "src" / "repro" / "apps" / "legion"
                              / "runtime.py"))
    verdict = next(iter(legion.advisor.values()))
    mech = verdict["mechanisms"]
    assert not verdict["wildcard_free"]
    assert mech["tags-with-hints"]["status"] == "blocked"
    assert mech["per-thread-comms"]["status"] == "blocked"
    assert mech["endpoints"]["status"] in ("ok", "in-use")
    assert [f.rule_id for f in legion.findings] == ["S313"]

    channels = analyze_path(str(ROOT / "src" / "repro" / "apps"
                                / "channels.py"))
    verdict = next(iter(channels.advisor.values()))
    mech = verdict["mechanisms"]
    assert verdict["wildcard_free"]
    assert mech["tags-with-hints"]["status"] == "ok"
    assert mech["endpoints"]["status"] == "in-use"
    msgrate = analyze_path(str(ROOT / "src" / "repro" / "bench"
                               / "msgrate.py"))
    assert msgrate.findings == []


def test_advisor_sees_attribute_held_hinted_comms():
    """Regression: the tags mechanism (``TagChannels``, which the stencil
    and graph drivers open) asserts the Listing 2 hints through
    ``listing2_info`` and stores the communicator on ``self.comm``; the
    advisor must credit those hints rather than advising the driver to
    add what it already has."""
    channels = analyze_path(str(ROOT / "src" / "repro" / "apps"
                                / "channels.py"))
    verdict = next(iter(channels.advisor.values()))
    tags = verdict["mechanisms"]["tags-with-hints"]
    assert tags["status"] == "ok"
    assert any("self.comm" in reason for reason in tags["reasons"])
    for path in (ROOT / "src" / "repro" / "apps").rglob("*.py"):
        report = analyze_path(str(path))
        assert not any(f.rule_id == "S315" for f in report.findings), path


# ----------------------------------------------------- cross-validation

def test_crossval_perfect_precision_and_recall():
    result = cross_validate(fixture_dir=str(FIXTURES))
    table = render_crossval(result)
    assert result["fp"] == 0, table
    assert result["fn"] == 0, table
    assert result["precision"] == 1.0
    assert result["recall"] == 1.0
    # Every dynamic rule class is exercised by some fixture...
    fired = {chk for row in result["rows"] for chk in row["dynamic"]}
    assert fired == {f"CHK1{i:02d}" for i in range(1, 12)}
    # ...and the shipped drivers are clean under both engines.
    assert result["drivers"] and all(r["clean"] for r in result["drivers"])
    # The static-only rules are covered by the non-executable fixtures.
    static_only = {rid for row in result["static_only"]
                   for rid in row["static"]}
    assert {"S311", "S312"} <= static_only
    assert set(DYNAMIC_EXEMPT) == {row["file"]
                                   for row in result["static_only"]}


def test_crossval_report_is_json_ready():
    import json
    result = cross_validate(fixture_dir=str(FIXTURES), drivers=False)
    payload = json.loads(json.dumps(result))
    assert payload["schema"] == 1 and payload["kind"] == "crossval"
    assert {"tp", "fp", "fn", "precision", "recall"} <= set(payload)


# ------------------------------------- purity / determinism (hypothesis)

_FIXTURE_SOURCES = sorted(p.name for p in FIXTURES.glob("*.py"))

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(st.sampled_from(_FIXTURE_SOURCES))
def test_analysis_is_deterministic_and_pure(name):
    """Same source, same report — and the target file is untouched."""
    path = FIXTURES / name
    before = hashlib.sha256(path.read_bytes()).hexdigest()
    first = analyze_path(str(path)).to_json()
    second = analyze_path(str(path)).to_json()
    assert first == second
    assert hashlib.sha256(path.read_bytes()).hexdigest() == before


@SETTINGS
@given(st.text(alphabet=st.characters(codec="ascii"), max_size=400))
@example("def f(comm, info):\n    info = info\n"
         "    c = yield from comm.Dup(info)\n")
@example("a = b\nb = a\nc = comm.Dup(a)\n")
def test_arbitrary_text_never_crashes_the_analyzer(source):
    """Garbage in, E999 (or a report) out — never an exception."""
    report = analyze_source(source, path="fuzz.py")
    assert report.to_json()


def test_analyzer_never_executes_the_target(tmp_path):
    """A program whose import has side effects is analyzed untouched."""
    marker = tmp_path / "executed.marker"
    prog = tmp_path / "prog.py"
    prog.write_text(
        "import pathlib\n"
        f"pathlib.Path({str(marker)!r}).write_text('ran')\n"
        "raise SystemExit(99)\n")
    report = analyze_path(str(prog))
    assert report.to_dict()["kind"] == "static"
    assert not marker.exists()
