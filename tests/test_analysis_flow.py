"""Flow checker: CFG semantics, corpus twins, interprocedural rules,
pragma handling, CLI/SARIF plumbing, and the tree-is-clean CI gate."""

from __future__ import annotations

import ast
import json
import os
import textwrap

import pytest

from repro.analysis.flow import (
    FLOW_RULES,
    analyze_files,
    build_cfg,
    run_flow,
    run_forward,
    to_sarif,
)
from repro.analysis.flow.__main__ import analyze_fixture, main as flow_main
from repro.analysis.flow.callgraph import ProgramIndex
from repro.analysis.flow.persist import compute_persist_summaries
from repro.analysis.pragmas import scan_pragmas

CORPUS = os.path.join(os.path.dirname(__file__), "analysis_corpus", "flow")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

FLOW_RULE_SET = {
    "unfenced-on-exception-path",
    "mutate-before-validate",
    "lock-order-cycle",
    "exception-path-no-rollback",
}


def analyze(src, module="repro/core/fake.py"):
    text = textwrap.dedent(src)
    return analyze_files({module: text}, modules={module: module})


def rules_of(findings):
    return sorted({f.rule for f in findings})


def cfg_of(src, name):
    tree = ast.parse(textwrap.dedent(src))
    fn = next(
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == name
    )
    return build_cfg(fn)


def call_names_states(cfg):
    """Dataflow whose state is the set of function names called so far."""

    def transfer(node, state):
        names = []
        for call in node.calls:
            func = call.func
            while isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(call.func, ast.Name):
                names.append(call.func.id)
            elif isinstance(call.func, ast.Attribute):
                names.append(call.func.attr)
        return state | frozenset(names)

    return run_forward(cfg, frozenset(), transfer)


# -- CFG construction ------------------------------------------------------


def test_finally_is_duplicated_per_continuation():
    cfg = cfg_of(
        """
        def f():
            try:
                a()
            finally:
                b()
        """,
        "f",
    )
    b_nodes = [
        n
        for n in cfg.nodes.values()
        if n.calls and isinstance(n.calls[0].func, ast.Name) and n.calls[0].func.id == "b"
    ]
    # one finally copy on the normal path, one on the raise path
    assert len(b_nodes) == 2


def test_exception_crosses_inner_finally_to_outer_handler():
    cfg = cfg_of(
        """
        def f():
            try:
                try:
                    a()
                finally:
                    b()
            except ValueError:
                c()
        """,
        "f",
    )
    result = call_names_states(cfg)
    handler = next(n for n in cfg.nodes.values() if n.kind == "handler")
    state = result.state_in(handler.nid)
    # a()'s exception must run the inner finally and still land in the
    # outer handler
    assert state is not None and "b" in state and "a" in state


def test_raise_reaches_raise_exit_through_finally():
    cfg = cfg_of(
        """
        def f():
            try:
                raise ValueError("x")
            finally:
                b()
        """,
        "f",
    )
    result = call_names_states(cfg)
    assert result.raise_state is not None and "b" in result.raise_state
    assert result.exit_state is None  # no normal path out


def test_loop_back_edge_merges_iteration_state():
    cfg = cfg_of(
        """
        def f(items):
            for x in items:
                a()
        """,
        "f",
    )
    result = call_names_states(cfg)
    # after one iteration the loop head re-entry state includes a()
    head = next(n for n in cfg.nodes.values() if isinstance(n.stmt, ast.For))
    assert "a" in result.state_in(head.nid)


def test_return_runs_finally_before_exit():
    src = """
    class F:
        def __init__(self, device):
            self.device = device

        def g(self):
            self.device.nt_store(0, b"x")
            try:
                return 1
            finally:
                self.device.fence()
    """
    module = "repro/core/fake.py"
    index = ProgramIndex.build({module: textwrap.dedent(src)}, {module: module})
    summaries = compute_persist_summaries(index)
    (summary,) = [v for k, v in summaries.items() if k.startswith("F.g@")]
    assert summary[0] == frozenset()  # nothing left unfenced at exit


# -- corpus twins ----------------------------------------------------------


def corpus_files(subdir=""):
    directory = os.path.join(CORPUS, subdir) if subdir else CORPUS
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".py")
    )


VIOLATING = corpus_files()
CLEAN = corpus_files("clean")


def name_of(path):
    return os.path.relpath(path, CORPUS)


@pytest.mark.parametrize("path", VIOLATING, ids=name_of)
def test_violating_fixture_trips_exactly_its_rule(path):
    findings, expect = analyze_fixture(path)
    assert expect, f"{path} declares no EXPECT rules"
    fired = {f.rule for f in findings}
    assert fired == set(expect), f"{path}: expected {expect}, fired {sorted(fired)}"


@pytest.mark.parametrize("path", CLEAN, ids=name_of)
def test_clean_twin_produces_no_findings(path):
    findings, expect = analyze_fixture(path)
    assert expect == [], f"{path} should declare EXPECT = []"
    assert findings == [], f"{path}: " + "; ".join(f.format() for f in findings)


def test_every_flow_rule_has_a_violating_fixture():
    covered = set()
    for path in VIOLATING:
        covered.update(analyze_fixture(path)[1])
    assert covered == FLOW_RULE_SET


def test_every_violating_fixture_has_a_clean_twin():
    assert {name_of(p) for p in VIOLATING} == {os.path.basename(p) for p in CLEAN}


def test_findings_carry_line_traces():
    for path in VIOLATING:
        findings, _ = analyze_fixture(path)
        for finding in findings:
            assert finding.trace, f"{path}: {finding.rule} finding has no trace"
            assert all(step.line > 0 for step in finding.trace)


# -- the PR 8 bug class, reintroduced --------------------------------------


def cache_source():
    path = os.path.join(SRC, "repro", "nvm", "cache.py")
    with open(path, "r", encoding="utf-8") as fh:
        return path, fh.read()


def test_real_nt_store_words_is_clean():
    path, text = cache_source()
    findings = analyze_files({path: text}, modules={path: "repro/nvm/cache.py"})
    assert findings == [], "; ".join(f.format() for f in findings)


def test_reintroducing_merged_loop_bug_fails_the_checker():
    # undo the PR 8 fix: merge nt_store_words' validate-all loop into
    # the mutation loop, so a mid-batch validation failure raises with
    # earlier words already applied
    path, text = cache_source()
    tree = ast.parse(text)
    fn = next(
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "nt_store_words"
    )
    loops = [s for s in fn.body if isinstance(s, ast.For)]
    assert len(loops) == 2, "nt_store_words no longer has the two-loop shape"
    validate, mutate = loops
    checks = [s for s in validate.body if isinstance(s, ast.If)]
    assert checks, "validation loop has no raise guards"
    mutate.body = checks + mutate.body
    fn.body.remove(validate)
    bugged = ast.unparse(tree)

    findings = analyze_files({path: bugged}, modules={path: "repro/nvm/cache.py"})
    assert "mutate-before-validate" in {f.rule for f in findings}


# -- interprocedural rules on inline programs ------------------------------


def test_unfenced_exception_path_found_through_helper_summary():
    findings = analyze(
        """
        class F:
            def __init__(self, device):
                self.device = device

            def _emit(self, off, data):
                self.device.nt_store(off, data)  # analysis: allow(unfenced-nt-store) -- op() fences

            def op(self, off, data):
                try:
                    self._emit(off, data)
                    self.device.fence()
                except OSError:
                    pass
                return True
        """
    )
    assert rules_of(findings) == ["unfenced-on-exception-path"]


def test_function_that_leaves_state_unfenced_by_design_is_not_an_op():
    # primitive-shaped helpers leave tokens on *every* path; only
    # functions whose normal exits are clean are treated as op ends
    findings = analyze(
        """
        class F:
            def __init__(self, device):
                self.device = device

            def emit(self, off, data):
                try:
                    self.device.nt_store(off, data)  # analysis: allow(unfenced-nt-store) -- caller fences
                except OSError:
                    pass
        """
    )
    assert findings == []


def test_mgl_hierarchy_violation_is_interprocedural():
    findings = analyze(
        """
        class M:
            def __init__(self, mgl):
                self.mgl = mgl

            def _take_file(self, recorder, fid):
                key = self.mgl.file_key(fid)
                recorder.lock(key, "W")

            def bad(self, recorder, fid):
                recorder.lock(("mgsp", fid, 0, 0), "W")
                self._take_file(recorder, fid)
        """
    )
    assert rules_of(findings) == ["lock-order-cycle"]
    assert any("hierarchy" in f.message for f in findings)


def test_consistent_lock_order_is_clean():
    findings = analyze(
        """
        class M:
            def ok(self, recorder, fid):
                recorder.lock(("mgsp-file", fid), "W")
                recorder.lock(("mgsp", fid, 0, 0), "W")
                recorder.unlock(("mgsp", fid, 0, 0))
                recorder.unlock(("mgsp-file", fid))
        """
    )
    assert findings == []


# -- pragmas ---------------------------------------------------------------


def test_pragma_on_store_line_suppresses_flow_finding():
    findings = analyze(
        """
        class Region:
            def __init__(self, device):
                self.device = device

            def commit(self, off, data):
                try:
                    # analysis: allow(unfenced-on-exception-path) -- recovery replays this record
                    self.device.nt_store(off, data)
                    self.device.fence()
                except OSError:
                    pass
                return True
        """
    )
    assert findings == []


def test_pragma_on_handler_line_also_suppresses():
    findings = analyze(
        """
        class Region:
            def __init__(self, device):
                self.device = device

            def commit(self, off, data):
                try:
                    self.device.nt_store(off, data)
                    self.device.fence()
                except OSError:  # analysis: allow(unfenced-on-exception-path) -- recovery replays this record
                    pass
                return True
        """
    )
    assert findings == []


def test_stale_flow_pragma_is_reported():
    findings = analyze(
        """
        def quiet():
            return 1  # analysis: allow(mutate-before-validate) -- left behind
        """
    )
    assert rules_of(findings) == ["stale-pragma"]


def test_unjustified_pragma_does_not_suppress():
    findings = analyze(
        """
        class Region:
            def __init__(self, device):
                self.device = device

            def commit(self, off, data):
                try:
                    self.device.nt_store(off, data)  # analysis: allow(unfenced-on-exception-path)
                    self.device.fence()
                except OSError:
                    pass
                return True
        """
    )
    assert "unfenced-on-exception-path" in rules_of(findings)


def test_pragma_scanner_ignores_docstring_examples():
    pragmas = scan_pragmas(
        textwrap.dedent(
            '''
            """Docs: suppress with  # analysis: allow(unfenced-nt-store) -- why."""
            x = 1  # analysis: allow(mgl-lock-order) -- real one
            '''
        )
    )
    assert [(p.rule, p.line) for p in pragmas] == [("mgl-lock-order", 3)]


# -- CLI / serialization ---------------------------------------------------


def test_cli_corpus_mode_green(capsys):
    assert flow_main(["--corpus", CORPUS]) == 0
    assert "corpus" in capsys.readouterr().out


def test_cli_fixture_exit_codes(tmp_path, capsys):
    violating = os.path.join(CORPUS, "mutate_before_validate.py")
    assert flow_main(["--program", violating]) == 1
    clean = os.path.join(CORPUS, "clean", "mutate_before_validate.py")
    assert flow_main(["--program", clean]) == 0
    stale = tmp_path / "stale.py"
    stale.write_text('EXPECT = ["lock-order-cycle"]\n\n\ndef f():\n    pass\n')
    assert flow_main(["--program", str(stale)]) == 2
    assert "MISSING" in capsys.readouterr().out


def test_cli_json_and_sarif_outputs(tmp_path, capsys):
    violating = os.path.join(CORPUS, "lock_order_cycle.py")
    out_json = tmp_path / "findings.json"
    out_sarif = tmp_path / "findings.sarif"
    rc = flow_main(
        [violating, "--json", str(out_json), "--sarif", str(out_sarif)]
    )
    capsys.readouterr()
    assert rc == 1
    payload = json.loads(out_json.read_text())
    assert payload["tool"] == "repro.analysis.flow"
    assert payload["findings"] and payload["findings"][0]["rule"]

    sarif = json.loads(out_sarif.read_text())
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert FLOW_RULE_SET <= declared
    for result in run["results"]:
        assert result["ruleId"] in declared
        assert result["locations"][0]["physicalLocation"]["region"]["startLine"] >= 1


def test_sarif_of_empty_findings_is_valid():
    sarif = json.loads(to_sarif([]))
    assert sarif["runs"][0]["results"] == []


# -- the CI gate -----------------------------------------------------------


def test_src_repro_is_flow_clean():
    findings = run_flow([os.path.join(SRC, "repro")])
    assert findings == [], "\n".join(f.format() for f in findings)
