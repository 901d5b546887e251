"""The database engine: catalog, tables, transactions, journal modes."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.db.btree import BTree
from repro.db.pager import PAGE_SIZE, Pager
from repro.db.records import Value, decode_row, encode_key, encode_row
from repro.db.wal import WriteAheadLog
from dataclasses import dataclass

from repro.errors import DbError, SchemaError, TransactionError
from repro.fsapi.interface import FileSystem


@dataclass(frozen=True)
class DbCpuModel:
    """CPU the SQL layer burns around the storage engine (prepared
    statements: bytecode VM execution, codec work, cursor moves). These
    keep the file system's share of a transaction realistic, matching
    how SQLite amortizes FS costs in the paper's Figs 11-12."""

    statement_ns: float = 3000.0  # one mutating statement (VM + btree CPU)
    row_read_ns: float = 1500.0  # one point lookup
    scan_row_ns: float = 300.0  # one row produced by a scan
    begin_ns: float = 800.0
    commit_ns: float = 12000.0  # commit bookkeeping above the journal


_CATALOG_PAGE = 0
_CATALOG_MAGIC = b"RDB1"

JOURNAL_MODES = ("wal", "off")


class SecondaryIndex:
    """Index on a subset of row columns; entries map (cols..., pk) -> b""."""

    def __init__(self, name: str, columns: Tuple[int, ...], tree: BTree) -> None:
        self.name = name
        self.columns = columns
        self.tree = tree

    def entry_key(self, pk: bytes, row: Tuple[Value, ...]) -> bytes:
        return encode_key(tuple(row[c] for c in self.columns)) + pk


class Table:
    """Keyed rows: composite key parts -> value tuple."""

    def __init__(self, db: "Database", name: str, tree: BTree) -> None:
        self.db = db
        self.name = name
        self.tree = tree
        self.indexes: Dict[str, SecondaryIndex] = {}

    # -- index maintenance -------------------------------------------------

    def _index_add(self, pk: bytes, row: Tuple[Value, ...]) -> None:
        for index in self.indexes.values():
            index.tree.insert(index.entry_key(pk, row), b"")

    def _index_remove(self, pk: bytes, raw_row: bytes) -> None:
        if not self.indexes or raw_row is None:
            return
        row = decode_row(raw_row)
        for index in self.indexes.values():
            index.tree.delete(index.entry_key(pk, row))

    def insert(self, key_parts: Tuple[Value, ...], row: Tuple[Value, ...]) -> None:
        self.db._cpu(self.db.cpu.statement_ns)
        key = encode_key(key_parts)

        def stmt():
            if self.indexes:
                self._index_remove(key, self.tree.get(key))
            self.tree.insert(key, encode_row(row))
            self._index_add(key, row)

        self.db._write_stmt(stmt)

    def update(self, key_parts: Tuple[Value, ...], row: Tuple[Value, ...]) -> bool:
        self.db._cpu(self.db.cpu.statement_ns)
        key = encode_key(key_parts)
        existed = self.tree.get(key) is not None

        def stmt():
            if self.indexes:
                self._index_remove(key, self.tree.get(key))
            self.tree.insert(key, encode_row(row))
            self._index_add(key, row)

        self.db._write_stmt(stmt)
        return existed

    def get(self, key_parts: Tuple[Value, ...]) -> Optional[Tuple[Value, ...]]:
        self.db._cpu(self.db.cpu.row_read_ns)
        raw = self.tree.get(encode_key(key_parts))
        return decode_row(raw) if raw is not None else None

    def delete(self, key_parts: Tuple[Value, ...]) -> bool:
        self.db._cpu(self.db.cpu.statement_ns)
        key = encode_key(key_parts)

        def stmt():
            if self.indexes:
                self._index_remove(key, self.tree.get(key))
            return self.tree.delete(key)

        return self.db._write_stmt(stmt)

    def scan_prefix(
        self, prefix: Tuple[Value, ...]
    ) -> Iterator[Tuple[bytes, Tuple[Value, ...]]]:
        start = encode_key(prefix)
        for key, raw in self.tree.scan(start, start + b"\xff"):
            self.db._cpu(self.db.cpu.scan_row_ns)
            yield key, decode_row(raw)

    def scan_from(
        self, key_parts: Tuple[Value, ...], limit: int
    ) -> Iterator[Tuple[bytes, Tuple[Value, ...]]]:
        """Range scan: up to *limit* rows with key >= key_parts."""
        produced = 0
        for key, raw in self.tree.scan(encode_key(key_parts)):
            if produced >= limit:
                return
            self.db._cpu(self.db.cpu.scan_row_ns)
            yield key, decode_row(raw)
            produced += 1

    def scan_all(self) -> Iterator[Tuple[bytes, Tuple[Value, ...]]]:
        for key, raw in self.tree.scan():
            yield key, decode_row(raw)

    def count(self) -> int:
        return self.tree.count()

    # -- secondary indexes -----------------------------------------------------

    def create_index(self, name: str, columns: Tuple[int, ...]) -> "SecondaryIndex":
        """Index on row column positions; backfills existing rows."""
        if name in self.indexes:
            raise SchemaError(f"index {name!r} exists on {self.name!r}")

        def ddl():
            index = self.db._create_index(self, name, columns)
            for pk, raw in self.tree.scan():
                index.tree.insert(index.entry_key(pk, decode_row(raw)), b"")
            return index

        return self.db._write_stmt(ddl, self.db._end_tx)

    def lookup_by(
        self, index_name: str, values: Tuple[Value, ...]
    ) -> Iterator[Tuple[Value, ...]]:
        """Yield rows whose indexed columns equal *values*."""
        index = self.indexes.get(index_name)
        if index is None:
            raise SchemaError(f"no index {index_name!r} on {self.name!r}")
        self.db._cpu(self.db.cpu.row_read_ns)
        prefix = encode_key(values)
        for entry_key, _ in index.tree.scan(prefix, prefix + b"\xff"):
            self.db._cpu(self.db.cpu.scan_row_ns)
            pk = entry_key[len(prefix):]
            raw = self.tree.get(pk)
            if raw is not None:
                yield decode_row(raw)


class Database:
    """One DB file (+ WAL file in wal mode) over a simulated FS.

    ``journal_mode``:

    - ``"wal"`` — commits append to the WAL and fsync it; pages reach the
      DB file at checkpoints (SQLite WAL).
    - ``"off"`` — commits write pages in place and fsync; no DB-level
      crash atomicity — the paper's mode for delegating consistency to
      the file system.
    """

    def __init__(
        self,
        fs: FileSystem,
        name: str = "test.db",
        journal_mode: str = "wal",
        capacity: int = 32 << 20,
        wal_capacity: int = 8 << 20,
        checkpoint_limit: int = 2 << 20,
        cpu: Optional[DbCpuModel] = None,
        cache_pages: int = 256,
    ) -> None:
        if journal_mode not in JOURNAL_MODES:
            raise DbError(f"journal_mode must be one of {JOURNAL_MODES}")
        self.fs = fs
        self.name = name
        self.cpu = cpu or DbCpuModel()
        self.journal_mode = journal_mode
        self.checkpoint_limit = checkpoint_limit
        existing = fs.exists(name)
        self.handle = fs.open(name) if existing else fs.create(name, capacity)
        self.pager = Pager(self.handle, cache_pages=cache_pages)
        self.wal: Optional[WriteAheadLog] = None
        if journal_mode == "wal":
            wal_name = name + "-wal"
            if fs.exists(wal_name):
                wal_handle = fs.open(wal_name)
                self.wal = WriteAheadLog.recover(wal_handle, self.handle)
                self.pager = Pager(self.handle, cache_pages=cache_pages)  # file changed
            else:
                wal_handle = fs.create(wal_name, wal_capacity)
                self.wal = WriteAheadLog(wal_handle)
        if self.wal is not None:
            self.pager.miss_source = self.wal.lookup
        self.tables: Dict[str, Table] = {}
        self._catalog: Dict[str, int] = {}
        #: (registry, key) of what DDL registered in the open transaction
        self._ddl_undo: List[Tuple[dict, str]] = []
        self.in_tx = False
        self.committed_txns = 0
        if existing:
            self._load_catalog()
        else:
            self.pager.write(_CATALOG_PAGE, _CATALOG_MAGIC)
            self._save_catalog(self._catalog)
            self._commit_pages()

    # -- catalog -----------------------------------------------------------------

    def _load_catalog(self) -> None:
        raw = bytes(self.pager.read(_CATALOG_PAGE))
        if raw[:4] != _CATALOG_MAGIC:
            raise DbError(f"{self.name}: bad catalog magic")
        (count,) = (raw[4],)
        flat = decode_row(raw[5:]) if count else ()
        deferred_indexes = []
        for i in range(0, len(flat), 2):
            name, root = flat[i], flat[i + 1]
            self._catalog[name] = root
            if name.startswith("__idx__"):
                deferred_indexes.append((name, root))
            else:
                self.tables[name] = Table(self, name, BTree(self.pager, root))
        for name, root in deferred_indexes:
            _, table_name, index_name, cols = name.split("__", 3)[0:1] + name[7:].split("__", 2)
            columns = tuple(int(c) for c in cols.split(","))
            table = self.tables[table_name]
            table.indexes[index_name] = SecondaryIndex(
                index_name, columns, BTree(self.pager, root)
            )

    def _save_catalog(self, catalog: Dict[str, int]) -> None:
        flat = []
        for name, root in catalog.items():
            flat += [name, root]
        body = encode_row(tuple(flat)) if flat else b""
        raw = _CATALOG_MAGIC + bytes([1 if flat else 0]) + body
        if len(raw) > PAGE_SIZE:
            raise DbError("catalog page overflow (too many tables)")
        self.pager.write(_CATALOG_PAGE, raw)

    def _register(self, registry: dict, key: str, value) -> None:
        """``registry[key] = value``, taken back if the transaction aborts."""
        registry[key] = value
        self._ddl_undo.append((registry, key))

    def _new_tree(self, catalog_name: str) -> BTree:
        """A fresh tree whose root the catalog page records under
        *catalog_name*; the DRAM catalog learns it only once that fits."""
        root = self.pager.allocate()
        tree = BTree(self.pager, root, initialize=True)
        self._save_catalog({**self._catalog, catalog_name: root})
        self._register(self._catalog, catalog_name, root)
        return tree

    def create_table(self, name: str) -> Table:
        if name in self.tables:
            raise SchemaError(f"table {name!r} exists")

        def ddl():
            table = Table(self, name, self._new_tree(name))
            self._register(self.tables, name, table)
            return table

        return self._write_stmt(ddl, self._end_tx)

    def _create_index(self, table: Table, index_name: str, columns) -> SecondaryIndex:
        catalog_name = f"__idx__{table.name}__{index_name}__{','.join(map(str, columns))}"
        if catalog_name in self._catalog:
            raise SchemaError(f"index {index_name!r} exists")
        index = SecondaryIndex(index_name, tuple(columns), self._new_tree(catalog_name))
        self._register(table.indexes, index_name, index)
        return index

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no such table {name!r}") from None

    # -- transactions ----------------------------------------------------------------

    def _cpu(self, ns: float) -> None:
        self.fs.recorder.compute(ns)

    def begin(self) -> None:
        if self.in_tx:
            raise TransactionError("transaction already open")
        self._cpu(self.cpu.begin_ns)
        self.in_tx = True

    def commit(self) -> None:
        if not self.in_tx:
            raise TransactionError("no open transaction")
        self._cpu(self.cpu.commit_ns)
        self._end_tx()
        self.committed_txns += 1

    def rollback(self) -> None:
        if not self.in_tx:
            raise TransactionError("no open transaction")
        self._abort()

    def _end_tx(self) -> None:
        self._commit_pages()
        self._ddl_undo.clear()
        self.in_tx = False

    def _abort(self) -> None:
        self.pager.rollback()
        while self._ddl_undo:
            registry, key = self._ddl_undo.pop()
            del registry[key]
        self.in_tx = False

    def _write_stmt(self, fn, commit=None):
        """Run a mutating statement; autocommit when no tx is open. DDL
        passes ``_end_tx`` as *commit*: set-up is not charged as a
        modelled statement. A failure rolls back DRAM registrations too."""
        if self.in_tx:
            return fn()
        self.in_tx = True
        try:
            result = fn()
        except Exception:
            self._abort()
            raise
        (commit or self.commit)()
        return result

    def _commit_pages(self) -> None:
        pages = self.pager.take_dirty()
        if not pages:
            return
        if self.wal is not None:
            self.wal.commit(pages)
            if self.wal.should_checkpoint(self.checkpoint_limit):
                self.wal.checkpoint(self.handle)
        else:
            self.pager.flush_to_file(pages)
            self.handle.fsync()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        if self.in_tx:
            self.rollback()
        if self.wal is not None:
            self.wal.checkpoint(self.handle)
            self.wal.handle.close()
        self.handle.close()
