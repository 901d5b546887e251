"""Per-layer host-time attribution, installed from outside the program.

``LAYERS`` names the public entry points of each layer (this repo's
modules). ``Tracer.install`` replaces each one with a timing wrapper —
on the class that defines it, or for module-level functions in every
loaded ``repro`` module that holds a reference, so a function imported
by name (``recover``, ``compose_image``) is wrapped at the call site the
program uses. A name that no longer exists is an error, not a dropped
layer.

Accounting is the rule ``repro.obs`` spans follow: a span's self time is
its duration minus the time its child spans cover, so per-function self
times sum exactly to the root span (``conserved`` checks it). Times are
integer nanoseconds; nothing is written until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from e2e.metrics import LAYER_NAMES

#: (layer, module, class or None for module-level functions, attributes)
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("fsapi", "repro.fsapi.interface", "FileSystem", ("take_traces", "exists", "unlink", "shutdown")),
    ("fsapi", "repro.fsapi.volume", "Volume", (
        "mount", "exists", "lookup", "files", "create", "unlink", "by_id",
        "set_size", "set_size_volatile", "persist_size")),
    ("core.file", "repro.core.file", "MgspFile", (
        "write", "read", "fsync", "checkpoint", "close", "mmap_view")),
    ("core.file", "repro.core.mgsp", "MgspFilesystem", (
        "create", "open", "unlink", "begin_transaction", "end_thread",
        "take_bg_traces", "remount")),
    ("core.shadowlog", "repro.core.shadowlog", "ShadowLog", (
        "plan_write", "plan_write_fast", "plan_txn_write", "read_range", "write_back")),
    ("core.radix", "repro.core.radix", "RadixTree", (
        "node", "next_gen", "store_word", "store_log_ptr", "store_words",
        "store_log_ptrs", "grow_to", "load_from_table", "clear_table")),
    ("core.metalog", "repro.core.metalog", "MetadataLog", (
        "claim", "release", "write", "retire", "scan")),
    ("core.locks", "repro.core.locks", "MglLockManager", (
        "acquire", "release", "release_retained")),
    ("core.flusher", "repro.core.flusher", "WritebackScheduler", (
        "note_write", "drain", "forget")),
    ("core.txn", "repro.core.txn", "MgspTransaction", (
        "write", "read", "commit", "rollback")),
    ("core.recovery", "repro.core.recovery", None, ("recover",)),
    ("nvm.device", "repro.nvm.device", "NvmDevice", (
        "store", "nt_store", "store_v", "nt_store_v", "store_word_v", "flush_v",
        "atomic_store_u64", "load", "load_u64", "flush", "fence", "persist",
        "crash_image", "unfenced_words", "drain", "from_image")),
    # __init__ is listed on purpose: construction is the image zero-fill
    # a mount pays, and service_mt / crash_recover mount inside the pass.
    ("nvm.cache", "repro.nvm.cache", "StoreBuffer", (
        "__init__", "store", "store_v", "nt_store", "nt_store_v", "nt_store_word",
        "nt_store_words", "atomic_store_u64", "load", "load_u64", "flush",
        "flush_v", "fence", "drain", "has_pending", "unfenced_words", "crash_image")),
    ("nvm.allocator", "repro.nvm.allocator", "LogAllocator", ("alloc", "free", "reset")),
    ("sim.trace", "repro.sim.trace", "TraceRecorder", (
        "begin_op", "end_op", "take_completed", "compute", "lock", "unlock",
        "io_write", "io_cached", "io_read", "io_flush", "io_fence")),
    ("sim.trace", "repro.sim.trace", "OpTrace", ("duration_ns",)),
    ("sim.engine", "repro.sim.engine", "ReplayEngine", ("run",)),
    ("db.engine", "repro.db.engine", "Database", (
        "create_table", "table", "begin", "commit", "rollback", "close")),
    ("db.engine", "repro.db.engine", "Table", (
        "insert", "update", "get", "delete", "scan_prefix", "scan_from",
        "scan_all", "count", "create_index", "lookup_by")),
    ("db.btree", "repro.db.btree", "BTree", ("get", "insert", "delete", "scan", "count")),
    ("db.pager", "repro.db.pager", "Pager", (
        "read", "write", "allocate", "take_dirty", "rollback", "flush_to_file")),
    ("db.wal", "repro.db.wal", "WriteAheadLog", (
        "commit", "should_checkpoint", "lookup", "checkpoint", "recover")),
    ("service.admission", "repro.service.admission", "TokenBucket", ("admit",)),
    ("service.scheduler", "repro.service.scheduler", "DeficitRoundRobin", ("enqueue", "drain")),
    ("service.service", "repro.service.service", "MgspService", (
        "__init__", "register", "submit", "run")),
    ("crashsweep", "repro.crashsweep.workloads", "SweepWorkload", ("run", "check")),
    ("crashsweep", "repro.crashsweep.workloads", "TxnSweepWorkload", ("setup", "body")),
    ("crashsweep", "repro.crashsweep.invariants", None, ("check_image", "pending_entries")),
    ("crashsweep", "repro.crashsweep.census", None, ("take_census",)),
    ("crashsweep", "repro.nvm.crash", None, ("compose_image",)),
    ("fs.baselines", "repro.fs.ext4dax", "Ext4DaxFile", ("write", "read", "fsync", "close")),
    ("fs.baselines", "repro.fs.ext4dax", "Ext4Dax", ("create", "open")),
    ("fs.baselines", "repro.fs.libnvmmio", "LibnvmmioFile", ("write", "read", "fsync", "close")),
    ("fs.baselines", "repro.fs.libnvmmio", "Libnvmmio", (
        "create", "open", "maybe_background_checkpoint", "take_bg_traces")),
    ("fs.baselines", "repro.fs.nova", "NovaFile", ("write", "read", "fsync", "close")),
    ("fs.baselines", "repro.fs.nova", "Nova", ("create", "open")),
    ("bench.driver", "repro.bench.registry", None, ("make_fs",)),
    ("bench.driver", "repro.workloads.fio", None, ("_prefill",)),
    ("bench.driver", "repro.workloads.tpcc", "TpccDriver", (
        "create_schema", "load", "new_order", "payment", "order_status",
        "delivery", "stock_level", "run_transaction")),
)

#: full spans are kept for this many ops (and never more than MAX_SPANS)
CAPTURE_OPS = 256
MAX_SPANS = 60_000

DRIVER_LAYER = "bench.driver"


class TraceError(RuntimeError):
    """The LAYERS table does not match the program."""


class Tracer:
    """Aggregates self time and call counts per wrapped function."""

    def __init__(self) -> None:
        self.names: List[str] = []  # "layer:Class.attr" per wrapped function
        self.layer_of: List[int] = []  # index into LAYER_NAMES
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        #: child-time accumulators of the open spans; [0] is the root's
        self.stack: List[int] = [0]
        self.active = False
        self._root_t0 = 0
        self._patched: List[Tuple[object, str, object]] = []
        # full-span capture (first CAPTURE_OPS ops)
        self.capture = False
        self.op_id = -1
        self.spans: List[tuple] = []  # (fn index, t0, t1, span id, parent id, op id)
        self._ids: List[int] = [0]
        self._next_id = 1
        self.window_calls: List[int] = []
        self.driver_fn = self._register(DRIVER_LAYER, "pass")

    # -- registration ------------------------------------------------------

    def _register(self, layer: str, label: str) -> int:
        self.names.append(f"{layer}:{label}")
        self.layer_of.append(LAYER_NAMES.index(layer))
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, fn: Callable, idx: int) -> Callable:
        tracer = self
        stack = self.stack
        self_ns = self.self_ns
        calls = self.calls
        now = time.perf_counter_ns

        def enter() -> int:
            stack.append(0)
            if tracer.capture:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                tracer._ids.append(sid)
            return now()

        def leave(t0: int) -> None:
            t1 = now()
            dt = t1 - t0
            self_ns[idx] += dt - stack.pop()
            calls[idx] += 1
            stack[-1] += dt
            if tracer.capture:
                ids = tracer._ids
                sid = ids.pop()
                tracer.spans.append((idx, t0, t1, sid, ids[-1], tracer.op_id))

        if inspect.isgeneratorfunction(fn):
            # One span per resume: the consumer's code between two items
            # belongs to the consumer, not to the generator's layer.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.active:
                    yield from it
                    return
                while True:
                    t0 = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(t0)
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS entry; raise TraceError on a missing name."""
        missing: List[str] = []
        for layer, module_name, class_name, attrs in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(module_name)
                continue
            owner = module if class_name is None else getattr(module, class_name, None)
            if owner is None:
                missing.append(f"{module_name}.{class_name}")
                continue
            for attr in attrs:
                raw = vars(owner).get(attr)
                if raw is None:
                    # Also catches a method that moved to a base class:
                    # patching the subclass would silently trace less.
                    missing.append(f"{module_name}.{class_name or ''}.{attr}")
                    continue
                label = f"{class_name}.{attr}" if class_name else attr
                idx = self._register(layer, label)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, idx))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, idx))
                elif inspect.isfunction(raw):
                    wrapped = self._wrap(raw, idx)
                else:
                    missing.append(f"{module_name}.{label} (not a function)")
                    continue
                if class_name is None:
                    self._patch_references(raw, wrapped)
                else:
                    self._patch(owner, attr, raw, wrapped)
        if missing:
            self.uninstall()
            raise TraceError("LAYERS names that do not exist: " + ", ".join(missing))

    def _patch(self, owner, attr: str, raw, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, raw))

    def _patch_references(self, raw, wrapped) -> None:
        """Replace a module-level function wherever it is looked up."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith(("repro.", "e2e."))):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patch(module, key, raw, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- the benchmark's own spans -----------------------------------------------

    def wrap_op(self, fn: Callable) -> Callable:
        """Wrap the workload's per-op function: a ``bench.driver`` span
        that also numbers the op for the captured spans."""
        idx = self._register(DRIVER_LAYER, "op")
        inner = self._wrap(fn, idx)
        tracer = self

        def op(*args):
            tracer.op_id += 1
            if tracer.capture and (
                tracer.op_id >= CAPTURE_OPS or len(tracer.spans) >= MAX_SPANS
            ):
                tracer.capture = False
            return inner(*args)

        return op

    def begin_root(self) -> None:
        """Open the root span (one timed pass)."""
        self.stack[:] = [0]
        self._ids[:] = [0]
        self.capture = self.op_id < CAPTURE_OPS - 1 and len(self.spans) < MAX_SPANS
        self.active = True
        self._root_t0 = time.perf_counter_ns()

    def end_root(self) -> int:
        """Close the root span; returns its duration in ns. Its self time
        (the workload loop, generator and inline oracle) is the driver's."""
        t1 = time.perf_counter_ns()
        self.active = False
        self.capture = False
        if len(self.stack) != 1:
            raise TraceError(f"{len(self.stack) - 1} spans still open at pass end")
        dt = t1 - self._root_t0
        self.self_ns[self.driver_fn] += dt - self.stack[0]
        self.calls[self.driver_fn] += 1
        return dt

    # -- reading -----------------------------------------------------------------

    def snapshot(self) -> List[int]:
        return list(self.self_ns)

    def self_ns_by_layer(self, since: List[int]) -> List[int]:
        """Self ns per LAYER_NAMES entry since the *since* snapshot."""
        out = [0] * len(LAYER_NAMES)
        for idx, layer in enumerate(self.layer_of):
            out[layer] += self.self_ns[idx] - since[idx]
        return out

    def mark_window(self) -> None:
        """Freeze the call counts: the sim window ends here."""
        self.window_calls = list(self.calls)

    def window_calls_by_layer(self) -> List[int]:
        out = [0] * len(LAYER_NAMES)
        for idx, layer in enumerate(self.layer_of):
            out[layer] += self.window_calls[idx]
        return out

    def window_calls_of(self, name: str) -> int:
        return self.window_calls[self.names.index(name)]

    def function_table(self) -> List[Dict[str, object]]:
        """Per-function totals, hottest first (written beside the results)."""
        rows = [
            {"fn": name, "self_ns": ns, "calls": n}
            for name, ns, n in zip(self.names, self.self_ns, self.calls)
            if n
        ]
        rows.sort(key=lambda r: -r["self_ns"])
        return rows

    def chrome_trace(self, workload: str) -> Dict[str, object]:
        """The captured spans as a Chrome trace-event document."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ns"}
        origin = min(span[1] for span in self.spans)
        events = []
        for idx, t0, t1, sid, parent, op in sorted(self.spans, key=lambda s: s[1]):
            layer, _, label = self.names[idx].partition(":")
            events.append({
                "name": label, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (t0 - origin) / 1000.0, "dur": (t1 - t0) / 1000.0,
                "args": {"id": sid, "parent": parent, "op": op},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"workload": workload, "ops_captured": min(self.op_id + 1, CAPTURE_OPS)},
        }


def conserved(layer_self_ns: List[int], root_ns: int) -> bool:
    """Per-layer self times must sum to the root span within 1 %."""
    return abs(sum(layer_self_ns) - root_ns) <= 0.01 * root_ns
