"""Multi-granularity locking (MGL, §III-C2).

The functional execution is single-threaded, so these locks arbitrate
*virtual* time: the manager decides which lock/unlock events each
operation emits into its cost trace, and the replay engine enforces the
Table I compatibility rules across simulated threads.

Design points reproduced:

- intention locks (IR/IW) down the search path, R/W on the accessed
  nodes, acquired in offset order and released in the same order;
- **lazy cleaning for intention locks**: intention locks are retained
  across operations and only re-emitted when a thread's path changes;
  retained locks are released in a per-thread trailer at thread end;
- **greedy locking**: with a single file reference, one coarse lock on
  the minimum-search-tree root replaces the whole path;
- with ``fine_grained_locking`` off, a single file-level rwlock models
  conventional file locking.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.core.config import MgspConfig
from repro.obs.spans import NULL_SINK
from repro.sim.locks import LockMode


class MglLockManager:
    #: telemetry sink (attach_telemetry replaces it per-instance); the
    #: acquire span measures emission cost, the hold histogram measures
    #: acquire-to-release virtual time per lock set.
    obs = NULL_SINK

    def __init__(self, config: MgspConfig, recorder) -> None:
        self.config = config
        self.recorder = recorder
        # thread id -> ordered dict of retained intention locks
        self._retained: Dict[int, Dict[Hashable, str]] = {}
        # id(keys list) -> virtual acquire time (popped at release)
        self._hold_since: Dict[int, float] = {}
        # (sink, its mgl_hold_ns histogram), resolved at the first release
        self._hold_meter = (NULL_SINK, None)

    # -- key helpers -------------------------------------------------------

    @staticmethod
    def node_key(file_id: int, level: int, index: int) -> Hashable:
        return ("mgsp", file_id, level, index)

    @staticmethod
    def file_key(file_id: int) -> Hashable:
        return ("mgsp-file", file_id)

    # -- acquisition --------------------------------------------------------

    def acquire(
        self,
        thread: int,
        file_id: int,
        path: List[Tuple[int, int]],
        terminals: List[Tuple[int, int]],
        write: bool,
        greedy_node: Tuple[int, int] = None,
    ) -> List[Hashable]:
        """Emit lock segments for one op; returns the keys to release."""
        obs = self.obs
        if not obs.enabled:
            return self._acquire(thread, file_id, path, terminals, write, greedy_node)
        frame = obs.span_begin("mgl.acquire")
        keys = self._acquire(thread, file_id, path, terminals, write, greedy_node)
        obs.span_end(frame)
        if len(self._hold_since) > 4096:
            # Unreleased sets (exception paths) must not pin memory.
            self._hold_since.clear()
        self._hold_since[id(keys)] = obs.now()
        return keys

    def _acquire(
        self,
        thread: int,
        file_id: int,
        path: List[Tuple[int, int]],
        terminals: List[Tuple[int, int]],
        write: bool,
        greedy_node: Tuple[int, int] = None,
    ) -> List[Hashable]:
        rec = self.recorder
        if not self.config.fine_grained_locking:
            key = self.file_key(file_id)
            rec.lock(key, LockMode.W if write else LockMode.R)
            return [key]

        if self.config.greedy_locking and greedy_node is not None:
            key = self.node_key(file_id, *greedy_node)
            rec.lock(key, LockMode.W if write else LockMode.R)
            return [key]

        to_release: List[Hashable] = []
        intent = LockMode.IW if write else LockMode.IR
        retained = self._retained.setdefault(thread, {})
        for level, index in path:
            key = self.node_key(file_id, level, index)
            if self.config.lazy_intention_locks:
                held = retained.get(key)
                if held == intent or held == LockMode.IW:
                    continue  # already held (IW subsumes IR for our ops)
                rec.lock(key, intent)
                retained[key] = intent
            else:
                rec.lock(key, intent)
                to_release.append(key)
        mode = LockMode.W if write else LockMode.R
        for level, index in sorted(terminals, key=lambda t: t[1]):
            key = self.node_key(file_id, level, index)
            rec.lock(key, mode)
            to_release.append(key)
        return to_release

    def release(self, keys: List[Hashable]) -> None:
        """Release in the same order as acquisition (paper's rule)."""
        obs = self.obs
        if obs.enabled:
            since = self._hold_since.pop(id(keys), None)
            if since is not None:
                meter = self._hold_meter
                if meter[0] is not obs:
                    meter = self._hold_meter = (obs, obs.registry.histogram("mgl_hold_ns"))
                meter[1].observe(obs.now() - since)
        for key in keys:
            self.recorder.unlock(key)

    def release_retained(self, thread: int) -> None:
        """Trailer at simulated-thread end: drop lazily-held intention
        locks so the replay engine sees balanced acquire/release."""
        retained = self._retained.pop(thread, {})
        for key in retained:
            self.recorder.unlock(key)
