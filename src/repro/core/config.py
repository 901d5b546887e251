"""MGSP configuration and ablation switches (Fig 13)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util import is_power_of_two


@dataclass(frozen=True)
class MgspConfig:
    """Knobs of the MGSP design.

    The defaults reproduce the full system; the ablation constructors
    peel techniques off for the Fig 13 breakdown.
    """

    #: radix-tree fan-out (paper: 64 -> granularities 64B/4K/256K/16M/1G)
    degree: int = 64
    #: leaf log size (the paper's minimum data block)
    leaf_size: int = 4096
    #: valid bits per leaf -> minimum update granularity
    #: (32 bits on a 4 KB leaf = 128 B; packed with a 24-bit generation
    #: in one atomic word, see bitmap.py)
    leaf_valid_bits: int = 32

    # -- technique switches ------------------------------------------------

    #: shadow logging (role switch between node log and last valid
    #: ancestor). Off = classic redo log + immediate write-back.
    shadow_logging: bool = True
    #: allow logs at non-leaf granularities (coarse-grained logging)
    multi_granularity: bool = True
    #: sub-leaf valid bits (fine-grained logging). Off = whole-leaf RMW.
    fine_grained_logging: bool = True
    #: MGL per-node IR/IW/R/W locks. Off = one file rwlock.
    fine_grained_locking: bool = True

    # -- optimizations -------------------------------------------------------

    min_search_tree: bool = True
    lazy_intention_locks: bool = True
    greedy_locking: bool = True

    # -- asynchronous write-back epochs --------------------------------------

    #: drain fresh log bytes back into files on epoch boundaries instead
    #: of only at close (bounds log usage and recovery time online)
    async_writeback: bool = False
    #: epoch boundary: fresh log bytes accumulated per file
    writeback_epoch_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.async_writeback and self.writeback_epoch_bytes <= 0:
            raise ValueError("async_writeback needs a positive writeback_epoch_bytes")
        if not is_power_of_two(self.degree):
            raise ValueError(f"degree must be a power of two, got {self.degree}")
        if not is_power_of_two(self.leaf_size):
            raise ValueError(f"leaf_size must be a power of two, got {self.leaf_size}")
        if self.leaf_valid_bits not in (1, 2, 4, 8, 16, 32):
            raise ValueError("leaf_valid_bits must be a power of two <= 32")
        if self.leaf_size % self.leaf_valid_bits:
            raise ValueError("leaf_size must divide evenly into sub-blocks")

    @property
    def sub_block(self) -> int:
        """Minimum update granularity."""
        if not self.fine_grained_logging:
            return self.leaf_size
        return self.leaf_size // self.leaf_valid_bits

    @property
    def effective_leaf_bits(self) -> int:
        return self.leaf_valid_bits if self.fine_grained_logging else 1

    # -- ablation presets (Fig 13) ----------------------------------------------

    @classmethod
    def baseline(cls) -> "MgspConfig":
        """Everything off: per-leaf redo logging with synchronous
        write-back, file-level locking."""
        return cls(
            shadow_logging=False,
            multi_granularity=False,
            fine_grained_logging=False,
            fine_grained_locking=False,
            min_search_tree=False,
            lazy_intention_locks=False,
            greedy_locking=False,
        )

    def with_shadow_logging(self) -> "MgspConfig":
        return replace(self, shadow_logging=True)

    def with_multi_granularity(self) -> "MgspConfig":
        return replace(self, multi_granularity=True, fine_grained_logging=True)

    def with_fine_locking(self) -> "MgspConfig":
        return replace(self, fine_grained_locking=True)

    def with_optimizations(self) -> "MgspConfig":
        return replace(
            self, min_search_tree=True, lazy_intention_locks=True, greedy_locking=True
        )
