"""The static engine's AST rules: every rule positive + negative,
pragmas, real tree."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.flow import FLOW_RULES, FlowFinding, analyze_files, run_flow
from repro.analysis.flow.__main__ import main

BENCH = "repro/bench/fake.py"  # unsanctioned, not replayable
CORE = "repro/core/fake.py"  # sanctioned and replayable


def lint(src, module):
    return analyze_files({module: textwrap.dedent(src)}, modules={module: module})


def rules_of(findings):
    return [f.rule for f in findings]


# -- raw-store-outside-protocol --------------------------------------------


def test_raw_store_flagged_outside_protocol_modules():
    src = """
    def warm(device):
        device.store(0, b"x" * 64)
    """
    assert rules_of(lint(src, BENCH)) == ["raw-store-outside-protocol"]


def test_raw_store_vectorized_and_nt_also_flagged():
    src = """
    def warm(fs):
        fs.device.nt_store_v(((0, b"x"),))
    """
    findings = lint(src, BENCH)
    assert "raw-store-outside-protocol" in rules_of(findings)


def test_raw_store_allowed_in_protocol_module():
    src = """
    def persist_block(device):
        device.store(0, b"x" * 64)
        device.persist(0, 64)
    """
    assert lint(src, CORE) == []


def test_non_device_receiver_not_flagged():
    src = """
    def save(cache):
        cache.store(0, b"x")
    """
    assert lint(src, BENCH) == []


# -- unfenced-nt-store -----------------------------------------------------


def test_nt_store_without_fence_flagged_even_in_protocol_module():
    src = """
    def leak(device):
        device.nt_store(0, b"x" * 64)
    """
    assert rules_of(lint(src, CORE)) == ["unfenced-nt-store"]


def test_nt_store_with_fence_clean():
    src = """
    def ok(device):
        device.nt_store(0, b"x" * 64)
        device.fence()
    """
    assert lint(src, CORE) == []


def test_nt_store_with_persist_or_drain_clean():
    src = """
    def ok(device):
        device.nt_store_v(((0, b"x"),))
        device.drain()
    """
    assert lint(src, CORE) == []


def test_nested_function_fences_do_not_cover_outer_nt_store():
    src = """
    def outer(device):
        device.nt_store(0, b"x" * 64)
        def inner():
            device.fence()
    """
    assert rules_of(lint(src, CORE)) == ["unfenced-nt-store"]


# -- mgl-lock-order --------------------------------------------------------


def test_unsorted_terminal_lock_loop_flagged():
    src = """
    def grab(self, plan):
        for level, index in plan.terminals:
            self.locks.lock((level, index), "x")
    """
    assert rules_of(lint(src, CORE)) == ["mgl-lock-order"]


def test_sorted_terminal_lock_loop_clean():
    src = """
    def grab(self, plan):
        for level, index in sorted(plan.terminals, key=lambda t: t[1]):
            self.locks.lock((level, index), "x")
    """
    assert lint(src, CORE) == []


def test_terminal_loop_without_locking_clean():
    src = """
    def count(self, plan):
        for level, index in plan.terminals:
            print(level, index)
    """
    assert lint(src, CORE) == []


# -- ambient-nondeterminism ------------------------------------------------


def test_time_call_in_replayable_module_flagged():
    src = """
    def stamp():
        return time.time()
    """
    assert rules_of(lint(src, CORE)) == ["ambient-nondeterminism"]


def test_ambient_random_and_unseeded_rng_flagged():
    src = """
    def pick():
        x = random.randrange(10)
        rng = random.Random()
        return x, rng
    """
    assert rules_of(lint(src, CORE)) == [
        "ambient-nondeterminism",
        "ambient-nondeterminism",
    ]


def test_seeded_rng_and_non_replayable_module_clean():
    seeded = """
    def pick(seed):
        return random.Random(seed).randrange(10)
    """
    assert lint(seeded, CORE) == []
    ambient = """
    def stamp():
        return time.time()
    """
    assert lint(ambient, "repro/bench/fake.py") == []


# -- pragmas ---------------------------------------------------------------


def test_justified_pragma_suppresses():
    src = """
    def leak(device):
        device.nt_store(0, b"x")  # analysis: allow(unfenced-nt-store) -- caller fences
    """
    assert lint(src, CORE) == []


def test_pragma_on_line_above_also_suppresses():
    src = """
    def leak(device):
        # analysis: allow(unfenced-nt-store) -- caller fences
        device.nt_store(0, b"x")
    """
    assert lint(src, CORE) == []


def test_unjustified_pragma_reported_not_suppressed():
    src = """
    def leak(device):
        device.nt_store(0, b"x")  # analysis: allow(unfenced-nt-store)
    """
    # both the bad pragma AND the original violation are reported
    assert sorted(rules_of(lint(src, CORE))) == ["invalid-pragma", "unfenced-nt-store"]


def test_pragma_for_different_rule_does_not_suppress():
    src = """
    def leak(device):
        device.nt_store(0, b"x")  # analysis: allow(redundant-flush) -- wrong rule
    """
    assert rules_of(lint(src, CORE)) == ["unfenced-nt-store"]


def test_unknown_rule_name_in_pragma_is_invalid():
    src = """
    def quiet():
        return 1  # analysis: allow(unfenced-nt-stor) -- typo
    """
    assert rules_of(lint(src, CORE)) == ["invalid-pragma"]


FLOW_PRAGMA = "# analysis: allow(unfenced-on-exception-path) -- recovery replays this record"
AST_PRAGMA = "# analysis: allow(unfenced-nt-store) -- caller fences"
MIXED_PRAGMAS = """
class Region:
    def __init__(self, device):
        self.device = device

    def commit(self, off, data):
        try:
            self.device.nt_store(off, data)
            self.device.fence()
        except OSError:  {handler_comment}
            pass
        return True  {return_comment}

def leak(device):
    device.nt_store(0, b"x")  {store_comment}
    return 1  {after_comment}
"""


@pytest.mark.parametrize("stale_rule", ["unfenced-nt-store", "unfenced-on-exception-path", None])
def test_file_with_flow_and_ast_pragmas_reports_exactly_the_unused_one(stale_rule):
    # the case the old per-engine rule ownership existed to get right:
    # a pragma is stale iff it suppressed nothing, whichever pass owns
    # its rule
    comments = dict(handler_comment=FLOW_PRAGMA, return_comment="", store_comment=AST_PRAGMA, after_comment="")
    if stale_rule == "unfenced-nt-store":  # second AST pragma, on a quiet line
        comments["after_comment"] = AST_PRAGMA
    elif stale_rule == "unfenced-on-exception-path":  # second flow pragma, on a quiet line
        comments["return_comment"] = FLOW_PRAGMA
    findings = lint(MIXED_PRAGMAS.format(**comments), CORE)
    if stale_rule is None:
        assert findings == []
    else:
        assert rules_of(findings) == ["stale-pragma"]
        assert f"allow({stale_rule})" in findings[0].message


# -- plumbing --------------------------------------------------------------


def test_syntax_error_surfaces_as_finding():
    assert rules_of(lint("def broken(:", CORE)) == ["syntax-error"]


def test_finding_format_is_path_line_rule():
    f = FlowFinding(path="src/x.py", line=3, rule="unfenced-nt-store", message="m")
    assert f.format() == "src/x.py:3: unfenced-nt-store: m"


def test_every_documented_rule_has_a_description():
    assert {
        "raw-store-outside-protocol",
        "unfenced-nt-store",
        "mgl-lock-order",
        "ambient-nondeterminism",
        "invalid-pragma",
        "stale-pragma",
    } <= set(FLOW_RULES)
    assert all(FLOW_RULES.values())


# -- the real tree must be clean (this is the CI gate) ---------------------


def test_src_repro_is_lint_clean():
    findings = run_flow(["src/repro"])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_main_exit_codes(tmp_path, capsys):
    assert main(["src/repro"]) == 0
    assert "clean" in capsys.readouterr().out
    bad = tmp_path / "bad.py"
    bad.write_text("def f(device):\n    device.nt_store(0, b'x')\n")
    assert main([str(bad)]) == 1
    assert "finding" in capsys.readouterr().out
