"""§III-D recovery experiment.

Paper: crashing a random-write workload and recovering a 1 GB file takes
186 ms, of which 153 ms writes 189 MB of logs back (48 K entries); the
worst case stays under 1 s because the replayed bytes never exceed the
file size.

We run the same experiment on a scaled 64 MB file and check that the
virtual recovery time extrapolated to 1 GB stays under the paper's 1 s
bound, and that the written-back bytes never exceed the file size.
"""

from __future__ import annotations

from repro.bench.figures import EXPERIMENTS

PAPER_FILE_SIZE = 1 << 30


def test_recovery_time(bench_table):
    stats = bench_table(EXPERIMENTS["recovery"])
    # Logs written back never exceed the file size (paper's bound).
    assert stats.log_bytes_written_back <= stats.file_size
    # Virtual recovery of the scaled file is a few-hundred-ms affair at
    # most; the paper's 1 GB bound of ~1 s must hold when scaled.
    per_byte_ms = stats.recovery_ms / max(1, stats.log_bytes_written_back)
    worst_case_1g_ms = per_byte_ms * PAPER_FILE_SIZE
    assert worst_case_1g_ms < 1000, worst_case_1g_ms
    # The interrupted operation (if any) was rolled forward.
    assert stats.entries_replayed <= 1
