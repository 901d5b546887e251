"""A dropped mount frees its device images at once, not at the next
garbage collection.

A self-recursive closure over ``self`` on the write path (a slot-count
estimator once built one per multi-leaf write) is a ``function <->
cell`` cycle that pins handle -> fs -> device -> both images until the
collector runs. A sweep that mounts per crash point should give its
images back when it drops them, not on the collector's schedule.
"""

from __future__ import annotations

import gc
import weakref

from repro.core import MgspFilesystem


def test_multi_leaf_write_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        fs = MgspFilesystem(device_size=8 << 20)
        handle = fs.create("f", capacity=1 << 20)
        handle.write(0, b"x" * 5000)  # spans two 4 KB leaves
        handle.fsync()
        images = weakref.ref(fs.device.buffer)
        del handle, fs
        assert images() is None, "the mount is still reachable through a cycle"
        assert gc.collect() == 0
    finally:
        gc.enable()
