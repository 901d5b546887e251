"""Black-box bundles and the post-mortem narrator.

The acceptance path: a failing run emits a bundle whose embedded
``--at N`` command re-triggers the failure, and the post-mortem on the
planted-fixture bundle names the unfenced words and the protocol step
that wrote them.
"""

from __future__ import annotations

import json

import pytest

from repro.nvm.crash import CrashPolicy

from repro.obs import blackbox, postmortem
from repro.obs.__main__ import main as obs_main

# the planted misordered-commit fixture: DROP_ALL right after the first
# commit word becomes durable loses record 1's payload
WORKLOAD = "toy-misordered"
CONFIG = "sync"
CRASH_AT = 4
SEED = 7


@pytest.fixture(scope="module")
def planted_bundle():
    return blackbox.capture(
        WORKLOAD,
        CONFIG,
        CRASH_AT,
        seed=SEED,
        policy=CrashPolicy.DROP_ALL,
        kind="infer-true-bug",
    )


def test_bundle_contents(planted_bundle):
    b = planted_bundle
    assert b["blackbox_version"] == blackbox.BLACKBOX_VERSION
    assert b["crashed"] is True
    assert b["violations_reproduced"] == [
        "record 1: committed but payload is torn/missing"
    ]
    assert b["dropped_words"]["count"] == 16
    assert b["reproducer"] == (
        f"python -m repro.crashsweep --workload {WORKLOAD} --configs {CONFIG}"
        f" --policies drop_all --at {CRASH_AT} --seed {SEED}"
    )
    assert b["held_locks"] == []
    assert b["flight"]["events"]  # ring tail present
    assert len(b["image_sha256"]) == 64


def test_mgsp_bundle_names_the_lock_held_at_the_crash_point():
    """A crash inside an MGSP write reports the MGL lock that write
    holds (the planted fixture above runs on the lock-free RawSystem);
    listening changes no byte of the image — the digest is the one the
    parent commit produced, where ``held_locks`` was ``[]``."""
    b = blackbox.capture("fio-randwrite", "sync", 101, seed=7, policy=CrashPolicy.DROP_ALL)
    assert b["held_locks"] == [["mgsp/1/0/12", "W"]]
    assert any(e[0] == "lock" and e[2:] == ["mgsp/1/0/12", "W"] for e in b["flight"]["events"])
    assert b["image_sha256"] == (
        "d1ed70abed96092fdf1488689427202c51109f56fd112eea3b74aa44169b70c9")


def test_embedded_reproducer_retriggers(planted_bundle):
    """The bundle's ``--at N`` line must exit 1 (failure re-triggered)."""
    from repro.crashsweep.__main__ import main as sweep_main

    argv = planted_bundle["reproducer"].split()[3:]  # strip python -m repro.crashsweep
    assert sweep_main(argv) == 1


def test_bundle_round_trip(planted_bundle, tmp_path):
    path = blackbox.write_bundle(planted_bundle, str(tmp_path))
    assert path.endswith(
        f"blackbox-infer-true-bug-{WORKLOAD}-{CONFIG}-drop_all-at{CRASH_AT}.json"
    )
    loaded = blackbox.load_bundle(path)
    assert loaded == json.loads(json.dumps(planted_bundle))


def test_capture_is_deterministic(planted_bundle):
    again = blackbox.capture(
        WORKLOAD, CONFIG, CRASH_AT, seed=SEED, policy=CrashPolicy.DROP_ALL,
        kind="infer-true-bug",
    )
    assert blackbox.render(again) == blackbox.render(planted_bundle)


def test_postmortem_names_words_and_step(planted_bundle):
    report = postmortem.analyze(planted_bundle)
    assert report["reproduced"] is True
    assert report["violations"] == planted_bundle["violations"]
    assert report["dropped_words"] == 16
    [step] = report["steps"]
    assert step["region"] == "toy_data"
    assert step["op"] == "record"  # the protocol step that wrote them
    assert step["flushed_before_crash"] is False  # never flushed pre-crash
    assert step["saved_by"]["event"] == 5  # the fence that would have saved them
    assert step["saved_by"]["op"] == "record"
    # every dropped word resolves to a writer before the crash
    assert all(row["writer"]["event"] < CRASH_AT for row in report["words"])
    text = postmortem.render(report)
    assert "REPRODUCED" in text
    assert "toy_data" in text and "'record'" in text
    assert "fence at event 5" in text


def test_forensics_clwb_covers_the_whole_line():
    # a clwb of 4096/8 writes back the whole 64 B line, 4104 included,
    # as the device's store buffer does
    rows = [
        ("store", 0, 0.0, 4096, 8, "store", "write", ()),
        ("store", 1, 0.0, 4104, 8, "store", "write", ()),
        ("flush", 2, 0.0, 4096, 8, 1, "write", ()),
        ("fence", 3, 0.0, "write", ()),
    ]
    rec = postmortem._forensics(rows, [4104], crash_after=3)[4104]
    assert rec["flushed_before_crash"] is True
    assert rec["saved_by"]["event"] == 3
    assert rec["writer"]["event"] == 1


def test_postmortem_cli(planted_bundle, tmp_path):
    path = blackbox.write_bundle(planted_bundle, str(tmp_path))
    assert obs_main(["postmortem", path]) == 0
    out = tmp_path / "report.json"
    assert obs_main(["postmortem", path, "--json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["steps"][0]["region"] == "toy_data"


def test_postmortem_cli_not_reproduced(tmp_path):
    """KEEP_ALL at the same point keeps every word: nothing lost, the
    failure does not reproduce, and the CLI says so with exit 3."""
    bundle = blackbox.capture(
        WORKLOAD, CONFIG, CRASH_AT, seed=SEED, policy=CrashPolicy.KEEP_ALL
    )
    path = blackbox.write_bundle(bundle, str(tmp_path))
    assert obs_main(["postmortem", path]) == 3


def test_analysis_finding_reproduces_in_its_own_postmortem(tmp_path, capsys):
    """``repro.analysis --bundle-dir`` bundles ordering facts, not bad
    images: the post-mortem folds the analyzer over the replayed stream
    and reproduces the finding at the bundle's event — and only there."""
    from repro.analysis.__main__ import main as analysis_main

    argv = ["--workload", "fio", "--config", "mgsp-async", "--strict"]
    assert analysis_main([*argv, "--bundle-dir", str(tmp_path)]) == 1
    capsys.readouterr()
    paths = sorted(tmp_path.iterdir(), key=lambda p: int(p.stem.rpartition("at")[2]))
    assert len(paths) == 5
    assert all(p.name.startswith("blackbox-analysis-redundant-fence-at") for p in paths)
    bundle = blackbox.load_bundle(str(paths[0]))
    assert (bundle["kind"], bundle["rule"]) == ("analysis-finding", "redundant-fence")
    report = postmortem.analyze(bundle)
    assert report["reproduced"] is True
    assert report["violations"] == ["redundant-fence: fence with nothing pending"]
    assert obs_main(["postmortem", str(paths[0])]) == 0
    bundle["crash_after"] += 1
    assert not postmortem.analyze(bundle)["reproduced"]


def test_service_error_bundle(tmp_path):
    from repro.service.service import MgspService, Request, ServiceConfig

    config = ServiceConfig(
        shards=2, flight_capacity=64, bundle_dir=str(tmp_path)
    )
    service = MgspService(config)
    service.register("alice")
    service.register("bob")
    service.submit("alice", Request("write", 0, 512, 10.0))
    service.submit("bob", Request("frobnicate", 0, 64, 20.0))
    with pytest.raises(ValueError, match="unknown request kind"):
        service.run()
    [bundle] = service.error_bundles
    assert bundle["kind"] == "service-error"
    assert bundle["tenant"] == "bob"
    assert bundle["error"]["type"] == "ValueError"
    assert bundle["flight"] is not None
    counters = {
        name for name in bundle["metrics"]["counters"]
        if name.startswith("service_tenant_errors_total")
    }
    assert counters
    files = list(tmp_path.glob("blackbox-service-error-*.json"))
    assert len(files) == 1
