"""The systematic crash-point sweep harness (ISSUE 3 tentpole)."""

from __future__ import annotations

import copy
import hashlib
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.core import MgspConfig, MgspFilesystem, recover
from repro.core.metalog import MetadataLog
from repro.crashsweep import (
    CONFIGS,
    WORKLOADS,
    check_image,
    get_workload,
    minimize_failure,
    pending_entries,
    point_seed,
    sample_points,
    sweep_unit,
    take_census,
)
from repro.crashsweep.__main__ import main as sweep_main
from repro.crashsweep.invariants import idempotence_violations
from repro.crashsweep.sweep import PERSIST_PROBABILITY
from repro.crashsweep.workloads import FileOracle, FsyncOracle
from repro.errors import CrashRequested
from repro.fsapi.layout import VolumeLayout
from repro.nvm.crash import CrashPlan, CrashPolicy, compose_image, count_events, policy_words
from repro.nvm.device import NvmDevice


class TestCensusAndSampling:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_event_parity_everywhere(self, name, config_name):
        """Enumerated crash-point count == events an armed plan fires —
        including inside the batched `_v` device entry points every MGSP
        write exercises."""
        census = take_census(get_workload(name), config_name)
        assert census.parity_ok, (census.events, census.derived)
        assert census.events > 0

    def test_census_is_deterministic(self):
        workload = get_workload("fio-randwrite")
        assert take_census(workload, "sync").events == take_census(workload, "sync").events

    def test_async_config_adds_events(self):
        workload = get_workload("fio-randwrite")
        assert take_census(workload, "async").events > take_census(workload, "sync").events

    def test_sample_exhaustive_below_budget(self):
        assert sample_points(17, 100, seed=1) == list(range(17))

    def test_sample_stratified_above_budget(self):
        points = sample_points(10_000, 100, seed=1)
        assert len(points) == 100
        assert points == sorted(set(points))
        # One point per stratum: spread across the whole event range.
        assert points[0] < 100 and points[-1] >= 9_900
        assert sample_points(10_000, 100, seed=1) == points
        assert sample_points(10_000, 100, seed=2) != points


class TestSweep:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_fio_randwrite_clean_sweep(self, config_name):
        report = sweep_unit("fio-randwrite", config_name, budget=12, seed=5)
        assert report.ok, [f.violations for f in report.failures]
        assert report.census.parity_ok
        assert report.images_checked == 3 * len(report.points)

    def test_txn_clean_sweep(self):
        report = sweep_unit("txn-mixed", "sync", budget=10, seed=5)
        assert report.ok, [f.violations for f in report.failures]

    def test_ycsb_clean_sweep(self):
        report = sweep_unit("ycsb-a", "sync", budget=6, seed=5)
        assert report.ok, [f.violations for f in report.failures]

    def test_single_point_replay(self):
        report = sweep_unit("fio-randwrite", "sync", points=[40], seed=5)
        assert report.points == [40]
        assert report.images_checked == 3
        assert report.ok


class TestRandomPolicyDeterminism:
    def crashed_device(self, crash_after=120):
        outcome = get_workload("fio-randwrite").run("sync", CrashPlan(crash_after))
        assert outcome.crashed
        return outcome.fs.device

    def test_same_seed_same_image(self):
        device = self.crashed_device()
        seed = point_seed(9, 120)
        first = compose_image(device, CrashPolicy.RANDOM, seed=seed)
        second = compose_image(device, CrashPolicy.RANDOM, seed=seed)
        assert first == second

    def test_different_seed_usually_differs(self):
        device = self.crashed_device()
        images = {compose_image(device, CrashPolicy.RANDOM, seed=s) for s in range(6)}
        assert len(images) > 1

    def test_policy_extremes(self):
        device = self.crashed_device()
        drop = compose_image(device, CrashPolicy.DROP_ALL, seed=0)
        keep = compose_image(device, CrashPolicy.KEEP_ALL, seed=0)
        assert drop == bytes(device.buffer.snapshot_durable())
        assert keep != drop  # a mid-write crash has unfenced words

    def test_policy_words_are_the_words_the_image_kept(self):
        """One rule for the sweep, its minimizer and the bundles — and it
        draws the subset ``crash_image(rng=...)`` draws from that seed."""
        device = self.crashed_device()
        candidates = list(device.unfenced_words())
        assert policy_words(device, CrashPolicy.DROP_ALL) == []
        assert policy_words(device, CrashPolicy.KEEP_ALL) == candidates
        kept = policy_words(device, CrashPolicy.RANDOM, 3, 0.5)
        assert kept == [candidates[0], candidates[2]]  # seed 3 drops the middle of three
        image = compose_image(device, CrashPolicy.RANDOM, seed=3, persist_probability=0.5)
        assert image == device.crash_image(persist_words=kept)
        assert image == device.crash_image(rng=random.Random(3), persist_probability=0.5)


class TestImagePipelineCost:
    """One txn-mixed/async crash point, the e2e benchmark's subject."""

    #: sha256 of the composed images at seed 7, by crash index, captured
    #: before booted images became copy-on-write pages: a change of
    #: image representation must not move a byte. At 1500 all four
    #: candidate words lose the RANDOM coin, at 1501 one wins.
    GOLDEN = {
        1500: {
            CrashPolicy.DROP_ALL: "ec82d2ad4194f15b07f14fd315ff0334223d49a2eb01bb33a1b17dd11649c6a7",
            CrashPolicy.KEEP_ALL: "6b46e5d7f1f7f1aa68fe4fe98b27794eed154c8f72023e41692f906c42640dda",
            CrashPolicy.RANDOM: "ec82d2ad4194f15b07f14fd315ff0334223d49a2eb01bb33a1b17dd11649c6a7",
        },
        1501: {CrashPolicy.RANDOM: "0dbeec685af8542654cc7dbe896cc9e08dd7fee3bb3d36fc4ce3b4fb588261c4"},
    }

    def images(self, crash_after):
        outcome = get_workload("txn-mixed").run("async", CrashPlan(crash_after))
        assert outcome.crashed
        return outcome, {
            policy: compose_image(
                outcome.fs.device,
                policy,
                seed=point_seed(7, crash_after),
                persist_probability=PERSIST_PROBABILITY,
            )
            for policy in CrashPolicy
        }

    @pytest.mark.parametrize("crash_after", sorted(GOLDEN))
    def test_composed_images_are_the_golden_ones(self, crash_after):
        _, images = self.images(crash_after)
        for policy, digest in self.GOLDEN[crash_after].items():
            assert hashlib.sha256(images[policy]).hexdigest() == digest, policy

    def test_checking_an_image_allocates_its_delta_not_the_image(self):
        """Recovery, every invariant, the second device and the
        idempotence compare together stay far below one image (the two
        boots alone were four heap copies of it)."""
        outcome, images = self.images(1500)
        image = images[CrashPolicy.KEEP_ALL]
        tracemalloc.start()
        try:
            assert check_image(image, "async", outcome.oracles) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(image) // 4, f"check_image peaked at {peak / len(image):.2f} images"


class TestMinimizer:
    def test_shrinks_to_failing_core(self):
        """With a checker that fails iff one specific word persisted, the
        greedy minimizer must shrink any chosen superset to that word."""
        device = NvmDevice(1 << 20)
        for off in range(0, 80, 8):
            device.store(off, bytes([1 + off % 250]) * 8)
        culprit = 16
        durable = bytes(device.buffer.snapshot_durable())

        def fake_check(image, config_name, oracles, idempotence=True):
            if image[culprit : culprit + 8] != durable[culprit : culprit + 8]:
                return ["culprit word persisted"]
            return []

        chosen = device.unfenced_words()
        assert culprit in chosen and len(chosen) > 1
        assert minimize_failure(device, "sync", {}, chosen, fake_check) == [culprit]


#: a handle stand-in: a level follows a stream issued nowhere
NOWHERE = SimpleNamespace(write=lambda off, payload: None, fsync=lambda: None)


class TestConsistencyLevels:
    """Each level accepts what its protocol may leave behind and rejects
    the rest — and which level judges a subject changes the verdict."""

    def test_per_op_level_rejects_a_half_applied_group(self):
        level = FileOracle(16)
        level.write(NOWHERE, 0, b"a" * 16)
        synced = b"a" * 16
        with level.atomic([(0, b"b" * 8), (8, b"c" * 8)]):
            assert level.illegal(synced) is None
            assert level.illegal(b"b" * 8 + b"c" * 8) is None
            assert level.illegal(b"b" * 8 + b"a" * 8) is not None
            assert level.illegal(b"a" * 8 + b"c" * 8) is not None
        # Applied on return: the old state is no longer legal.
        assert level.pending is None
        assert level.illegal(synced) is not None
        assert level.illegal(b"b" * 8 + b"c" * 8) is None

    def test_a_crash_inside_atomic_leaves_the_group_pending(self):
        level = FileOracle(8)
        with pytest.raises(CrashRequested):
            with level.atomic([(0, b"x" * 8)]):
                raise CrashRequested
        assert level.pending == [(0, b"x" * 8)]
        assert level.synced == bytes(8)
        assert level.illegal(bytes(8)) is None and level.illegal(b"x" * 8) is None

    def test_fsync_level_accepts_any_byte_mix_and_names_a_third_value(self):
        level = FsyncOracle(4)
        level.write(NOWHERE, 0, b"AAAA")
        level.fsync(NOWHERE)
        level.write(NOWHERE, 0, b"BBBB")
        for mix in (b"AAAA", b"BBBB", b"ABAB", b"BAAB"):
            assert level.illegal(mix) is None, mix
        assert level.illegal(b"ABCB") == (
            "byte 2 reads 67, neither last-synced (65) nor latest-written (66)"
        )

    def test_the_level_decides_the_verdict(self, monkeypatch):
        """Libnvmmio keeps unsynced writes in a redo log that a crash may
        drop: its own level passes every image, the per-op level fails
        most of them."""
        own = sweep_unit("libnvmmio-fio", "sync", budget=40, seed=7, minimize=False)
        assert own.ok and own.images_checked == 120
        per_op = copy.copy(get_workload("libnvmmio-fio"))
        per_op.oracle_type = FileOracle
        monkeypatch.setitem(WORKLOADS, "libnvmmio-fio", per_op)
        judged = sweep_unit("libnvmmio-fio", "sync", budget=40, seed=7, minimize=False)
        assert judged.images_checked == 120
        assert len(judged.failures) > 60, len(judged.failures)


def make_fs():
    return MgspFilesystem(device_size=8 << 20, config=MgspConfig(degree=16))


def metalog_of(image: bytes) -> MetadataLog:
    device = NvmDevice.from_image(image)
    layout = VolumeLayout.for_device(device.size, log_fraction=MgspFilesystem.log_fraction)
    return MetadataLog(device, layout.metalog)


class TestUnlinkedFileRecovery:
    """Regression for the `_replay_entry` abort: a crash can persist an
    unlink while dropping the (deliberately unfenced) retire word of the
    file's last write — recovery must discard that entry, not fail."""

    def build_image(self):
        fs = make_fs()
        f = fs.create("doomed", capacity=64 << 10)
        fs.device.drain()
        f.write(0, b"x" * 4096)  # completes; its retire word is unfenced
        slot = f.inode.slot_offset
        # The first half of unlink(): clear the inode magic+id word.
        fs.device.atomic_store_u64(slot, 0)
        assert slot in fs.device.unfenced_words()
        # Adversarial image: the unlink word persisted, the retire did not.
        return bytes(fs.device.crash_image(persist_words=[slot])), fs.config

    def test_entry_for_unlinked_file_is_discarded(self):
        image, config = self.build_image()
        entries = metalog_of(image).scan()
        assert entries, "scenario must leave a live metalog entry"
        fs2, stats = recover(NvmDevice.from_image(image), config=MgspConfig(degree=16))
        assert stats.entries_discarded >= 1
        assert not fs2.volume.exists("doomed")
        assert not fs2.metalog.scan()  # discarded AND retired

    def test_checker_accepts_the_image(self):
        image, _config = self.build_image()
        assert check_image(image, "sync", {}) == []


class TestRecoveryIdempotence:
    """Recovery may crash and be rerun: crashing it at any sampled event
    and recovering again must land on the byte-identical final image."""

    def crash_images(self, crash_after=140):
        outcome = get_workload("fio-randwrite").run("sync", CrashPlan(crash_after))
        assert outcome.crashed
        return [
            compose_image(outcome.fs.device, policy, seed=11)
            for policy in (CrashPolicy.RANDOM, CrashPolicy.DROP_ALL)
        ]

    def final_image(self, image: bytes) -> bytes:
        fs, _ = recover(NvmDevice.from_image(image), config=MgspConfig(degree=16))
        fs.device.drain()
        return bytes(fs.device.buffer.durable)

    def test_crashed_recovery_reruns_to_same_image(self):
        for image in self.crash_images():
            reference = self.final_image(image)
            # Census the recovery itself, then crash it at a few points.
            census_device = NvmDevice.from_image(image)
            plan = CrashPlan(1 << 62)
            census_device.attach(plan)
            recover(census_device, config=MgspConfig(degree=16))
            events = count_events(census_device)
            assert events == plan.count
            for crash_at in sorted({1, events // 3, events // 2, events - 1}):
                device = NvmDevice.from_image(image)
                plan = device.attach(CrashPlan(crash_at))
                with pytest.raises(CrashRequested):
                    recover(device, config=MgspConfig(degree=16))
                device.detach(plan)
                for seed in (0, 1):
                    interrupted = compose_image(device, CrashPolicy.RANDOM, seed=seed)
                    assert self.final_image(interrupted) == reference, (
                        f"recovery crashed at event {crash_at}/{events} "
                        f"(seed {seed}) did not replay to the same image"
                    )


class TestIdempotenceHelper:
    """The one fixpoint check behind the MGSP, NOVA and queue checkers:
    its failing outputs, which no healthy recovery produces."""

    def recovered(self, size=4096):
        device = NvmDevice.from_image(bytes(size))
        device.store(64, b"left dirty by the first recovery")
        return device

    def test_fixpoint_passes_and_first_device_is_drained(self):
        first = self.recovered()
        assert idempotence_violations(first, lambda device: "", "recovery", "raised") == []
        assert first.unfenced_words() == []

    def test_second_pass_that_writes_is_reported_with_its_byte_count(self):
        def scribble(device):
            device.nt_store(128, b"\x01\x02\x03")
            return " (replayed 1, discarded 0)"

        assert idempotence_violations(self.recovered(), scribble, "NOVA recovery", "raised") == [
            "NOVA recovery is not idempotent: second pass changed 3 bytes "
            "(replayed 1, discarded 0)"
        ]

    def test_one_byte_on_a_page_the_first_pass_never_wrote_is_reported(self):
        """The comparison reads the pages either device wrote, not only
        the first one's."""

        def flip(device):
            device.nt_store(3 * 4096 + 17, b"\x01")
            return ""

        assert idempotence_violations(self.recovered(4 * 4096), flip, "recovery", "raised") == [
            "recovery is not idempotent: second pass changed 1 bytes"
        ]

    def test_second_pass_that_raises_is_reported_in_the_callers_format(self):
        def boom(device):
            raise ValueError("bad slot")

        for template, expected in (
            ("second recovery raised {kind}: {exc}", "second recovery raised ValueError: bad slot"),
            ("second NOVA recovery raised {exc!r}", "second NOVA recovery raised ValueError('bad slot')"),
        ):
            assert idempotence_violations(self.recovered(), boom, "recovery", template) == [expected]


class TestPendingEntriesHelper:
    def test_counts_unretired_entries(self):
        fs = make_fs()
        f = fs.create("p", capacity=64 << 10)
        fs.device.drain()
        f.write(0, b"q" * 1024)
        # DROP_ALL image loses the unfenced retire: entry visible.
        image = compose_image(fs.device, CrashPolicy.DROP_ALL, seed=0)
        assert pending_entries(image) == 1
        # KEEP_ALL persists the retire: no entry survives.
        image = compose_image(fs.device, CrashPolicy.KEEP_ALL, seed=0)
        assert pending_entries(image) == 0


class TestCli:
    def test_list(self, capsys):
        assert sweep_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fio-randwrite" in out and "txn-mixed" in out and "ycsb-a" in out

    def test_small_sweep(self, capsys):
        assert (
            sweep_main(
                ["--workload", "fio-randwrite", "--configs", "sync", "--budget", "6"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parity=ok" in out and "violations=0" in out
        assert "swept 6 crash points, checked 18 images" in out

    def test_at_mode(self, capsys):
        argv = [
            "--workload",
            "txn-mixed",
            "--configs",
            "sync",
            "--policies",
            "random",
            "--at",
            "25",
            "--seed",
            "3",
        ]
        assert sweep_main(argv) == 0
        assert "swept 1 crash points, checked 1 images" in capsys.readouterr().out

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            sweep_main(["--workload", "nope"])
