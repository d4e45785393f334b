"""Lint-pass tests: each L2xx rule fires on a crafted source file,
suppressions work (and bare ones are themselves findings), and the
repository's own tree is clean."""

import json
import pathlib
import subprocess
import sys

from repro.check.lint import (
    Finding,
    lint_file,
    render_json,
    render_text,
    run_lint,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A rel path that puts the fixture on the simulated timeline for L201.
SIM_REL = "src/repro/sim/fixture.py"


def lint_source(tmp_path, source, rel=SIM_REL, select=None):
    path = tmp_path / "fixture.py"
    path.write_text(source)
    return lint_file(path, rel, select={s.upper() for s in select}
                     if select else None)


def rules(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------------ L201

def test_l201_host_clock_call(tmp_path):
    src = '"""Doc."""\nimport time\nt = time.perf_counter()\n'
    assert "L201" in rules(lint_source(tmp_path, src))


def test_l201_global_numpy_random(tmp_path):
    src = '"""Doc."""\nimport numpy as np\nx = np.random.rand(4)\n'
    assert "L201" in rules(lint_source(tmp_path, src))


def test_l201_seeded_generator_is_sanctioned(tmp_path):
    src = ('"""Doc."""\nimport numpy as np\n'
           'rng = np.random.default_rng(42)\nx = rng.random(4)\n')
    assert "L201" not in rules(lint_source(tmp_path, src))


def test_l201_stdlib_random_import(tmp_path):
    src = '"""Doc."""\nimport random\n'
    assert "L201" in rules(lint_source(tmp_path, src))


def test_l201_from_import(tmp_path):
    src = '"""Doc."""\nfrom time import perf_counter\n'
    assert "L201" in rules(lint_source(tmp_path, src))


def test_l201_only_in_simulated_paths(tmp_path):
    src = '"""Doc."""\nimport time\nt = time.perf_counter()\n'
    out = lint_source(tmp_path, src, rel="src/repro/cli.py")
    assert "L201" not in rules(out)


def test_l201_module_level_counter(tmp_path):
    """A module-level ``itertools.count`` numbers objects across every
    World the process builds (``netsim/message.py`` kept one until PR 20)."""
    for src in ('"""Doc."""\nimport itertools\n_seq = itertools.count()\n',
                '"""Doc."""\nfrom itertools import count\n_seq = count(1)\n',
                '"""Doc."""\nimport itertools\n\n\nclass _Ids:\n'
                '    seq = itertools.count()\n'):
        assert "L201" in rules(lint_source(tmp_path, src))


def test_l201_counter_owned_by_an_object_is_sanctioned(tmp_path):
    src = ('"""Doc."""\nimport itertools\n\n\nclass _Sim:\n'
           '    def __init__(self):\n'
           '        self.ids = itertools.count()\n')
    assert "L201" not in rules(lint_source(tmp_path, src))
    module_level = '"""Doc."""\nimport itertools\n_seq = itertools.count()\n'
    out = lint_source(tmp_path, module_level, rel="src/repro/serve/ids.py")
    assert "L201" not in rules(out)


# ------------------------------------------------------------------ L202

def test_l202_raw_emit_category(tmp_path):
    src = '"""Doc."""\ntracer.emit("p2p.send", x=1)\n'
    assert "L202" in rules(lint_source(tmp_path, src))


def test_l202_member_category_is_clean(tmp_path):
    src = '"""Doc."""\ntracer.emit(TC.P2P_SEND, x=1)\n'
    assert "L202" not in rules(lint_source(tmp_path, src))


def test_l202_applies_in_trace_module(tmp_path):
    """The module defining the categories is linted like any other."""
    src = '"""Doc."""\ntracer.emit("p2p.send", x=1)\n'
    out = lint_source(tmp_path, src, rel="src/repro/sim/trace.py")
    assert "L202" in rules(out)


# ------------------------------------------------------------------ L203

def test_l203_bare_except(tmp_path):
    src = '"""Doc."""\ntry:\n    x = 1\nexcept:\n    pass\n'
    assert "L203" in rules(lint_source(tmp_path, src))


def test_l203_typed_except_is_clean(tmp_path):
    src = '"""Doc."""\ntry:\n    x = 1\nexcept ValueError:\n    pass\n'
    assert "L203" not in rules(lint_source(tmp_path, src))


# ----------------------------------------------------------- L204 / L205

def test_l204_missing_module_docstring(tmp_path):
    assert "L204" in rules(lint_source(tmp_path, "x = 1\n"))


def test_l204_missing_function_docstring(tmp_path):
    src = ('"""Doc."""\ndef work(a: int) -> int:\n'
           '    b = a + 1\n    c = b * 2\n    d = c - 3\n    return d\n')
    assert "L204" in rules(lint_source(tmp_path, src))


def test_l204_trivial_accessor_exempt(tmp_path):
    src = '"""Doc."""\ndef get(a: int) -> int:\n    return a\n'
    assert "L204" not in rules(lint_source(tmp_path, src))


def test_l204_property_exempt(tmp_path):
    src = ('"""Doc."""\nclass C:\n    """Doc."""\n\n    @property\n'
           '    def value(self) -> int:\n        x = self._x\n'
           '        y = x + 1\n        z = y * 2\n        w = z\n'
           '        return w\n')
    assert "L204" not in rules(lint_source(tmp_path, src))


def test_l204_private_names_exempt(tmp_path):
    src = ('"""Doc."""\ndef _helper(a: int) -> int:\n'
           '    b = a + 1\n    c = b * 2\n    d = c - 3\n    return d\n')
    assert "L204" not in rules(lint_source(tmp_path, src))


def test_l205_unannotated_public_function(tmp_path):
    src = '"""Doc."""\ndef work(a, b):\n    """Doc."""\n    return a + b\n'
    assert "L205" in rules(lint_source(tmp_path, src))


def test_l205_self_only_signature_exempt(tmp_path):
    src = ('"""Doc."""\nclass C:\n    """Doc."""\n\n'
           '    def close(self):\n        """Doc."""\n        self.x = 0\n')
    assert "L205" not in rules(lint_source(tmp_path, src))


# ----------------------------------------------------- suppression / L200

def test_suppression_with_reason(tmp_path):
    src = ('"""Doc."""\nimport time\n'
           't = time.perf_counter()  # lint: ignore[L201] -- host profiling\n')
    assert rules(lint_source(tmp_path, src)) == []


def test_bare_suppression_is_l200_and_does_not_suppress(tmp_path):
    """Without a ``-- reason`` the directive has no effect: the named
    rule still fires, plus L200 for the unjustified suppression."""
    src = ('"""Doc."""\nimport time\n'
           't = time.perf_counter()  # lint: ignore[L201]\n')
    out = rules(lint_source(tmp_path, src))
    assert "L200" in out and "L201" in out


def test_suppression_only_covers_named_rule(tmp_path):
    src = ('"""Doc."""\nimport time\n'
           't = time.perf_counter()  # lint: ignore[L202] -- wrong rule\n')
    assert "L201" in rules(lint_source(tmp_path, src))


# ------------------------------------------------------------- machinery

def test_syntax_error_becomes_e999(tmp_path):
    assert rules(lint_source(tmp_path, "def broken(:\n")) == ["E999"]


def test_select_filters_rules(tmp_path):
    src = 'import time\nt = time.perf_counter()\n'  # L201 + L204
    out = rules(lint_source(tmp_path, src, select=["L201"]))
    assert out == ["L201"]


def test_render_text_and_json(tmp_path):
    findings = lint_source(tmp_path, "x = 1\n")
    text = render_text(findings)
    assert SIM_REL in text and "finding(s)" in text
    data = json.loads(render_json(findings))
    assert data["schema"] == 1 and not data["clean"]
    assert data["findings"][0]["rule"] == "L204"
    assert render_text([]) == "lint: clean"
    assert json.loads(render_json([]))["clean"]


def test_finding_describe():
    f = Finding("src/x.py", 3, 7, "L203", "bare `except:`")
    assert f.describe() == "src/x.py:3:7: L203 bare `except:`"


# ----------------------------------------------------------- integration

def test_repository_tree_is_clean():
    """The codebase passes its own lint (satellite of the rule catalog)."""
    findings = run_lint()
    assert not findings, render_text(findings)


def test_benchmarks_and_examples_are_linted_and_clean():
    """The default roots cover the driver trees, and they lint clean."""
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[1]
    for tree in ("benchmarks", "examples"):
        root = repo / tree
        assert root.is_dir()
        findings = run_lint([root])
        assert not findings, f"{tree}: " + render_text(findings)


def test_lint_cli_clean_and_json(tmp_path):
    env_root = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json"],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": env_root, "PATH": "/usr/bin:/bin"})
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout)["clean"]


def test_lint_cli_reports_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    x = 1\nexcept:\n    pass\n")
    out = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(bad),
         "--select", "L203"],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert out.returncode == 1
    assert "L203" in out.stdout
