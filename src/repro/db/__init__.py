"""Embedded relational-ish database (the reproduction's SQLite stand-in).

A paged B+tree storage engine over any simulated file system, with the
two journal modes the paper evaluates:

- ``wal``  — write-ahead log file + checkpointing (SQLite's WAL mode);
- ``off``  — dirty pages written in place at commit, no DB-level journal
  (SQLite's ``journal_mode=OFF``; crash safety comes from the FS, which
  is exactly what MGSP provides and Ext4-DAX does not).
"""

from repro.db.engine import Database
from repro.db.btree import BTree
from repro.db.pager import Pager

__all__ = [
    "BTree",
    "Database",
    "Pager",
]
