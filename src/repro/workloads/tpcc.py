"""TPC-C on the embedded database (Fig 12).

A faithful-in-structure, scaled-down TPC-C: the nine tables with their
composite primary keys and the five transaction types at the standard
mix (New-Order 45%, Payment 43%, Order-Status 4%, Delivery 4%,
Stock-Level 4%). Row payloads are trimmed but every read/write the spec
prescribes against the primary keys is performed, so the I/O pattern —
small scattered updates inside multi-statement transactions — matches
what SQLite generates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.db import Database
from repro.fsapi.interface import FileSystem

#: scaled-down cardinalities (full spec: 10 districts, 3000 customers,
#: 100000 items; scaled to keep simulated runs tractable)
DISTRICTS = 10
CUSTOMERS_PER_DISTRICT = 120
ITEMS = 4000
STOCK_PER_WAREHOUSE = ITEMS

MIX = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)


@dataclass
class TpccResult:
    fs_name: str
    journal_mode: str
    transactions: int
    elapsed_ns: float
    per_type: Dict[str, int] = field(default_factory=dict)

    @property
    def tpm(self) -> float:
        """Transactions per simulated minute."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.transactions / (self.elapsed_ns * 1e-9) * 60.0

    @property
    def tx_per_sec(self) -> float:
        return self.tpm / 60.0


class TpccDriver:
    def __init__(self, db: Database, warehouse: int = 1, seed: int = 99) -> None:
        self.db = db
        self.w = warehouse
        self.rng = random.Random(seed)
        self.next_order_id: Dict[int, int] = {}
        self.next_delivery: Dict[int, int] = {}

    # -- schema / load -----------------------------------------------------------

    def create_schema(self) -> None:
        for name in (
            "warehouse",
            "district",
            "customer",
            "item",
            "stock",
            "orders",
            "new_order",
            "order_line",
            "history",
        ):
            self.db.create_table(name)
        # The spec's customer-by-last-name access path (60% of payments).
        self.db.table("customer").create_index("by_last", (1,))

    def load(self) -> None:
        db, w = self.db, self.w
        db.begin()
        db.table("warehouse").insert((w,), (f"W{w}", 0.1, 300000.0))
        for d in range(1, DISTRICTS + 1):
            db.table("district").insert((w, d), (f"D{d}", 0.1, 30000.0, 1))
            self.next_order_id[d] = 1
            self.next_delivery[d] = 1
            for c in range(1, CUSTOMERS_PER_DISTRICT + 1):
                db.table("customer").insert(
                    (w, d, c),
                    (f"C{c}", f"LAST{c % 12}", 50000.0, -10.0, 10.0, 1, 0),
                )
        for i in range(1, ITEMS + 1):
            db.table("item").insert((i,), (f"item-{i}", float(self.rng.randrange(100, 10000)) / 100.0))
            db.table("stock").insert((w, i), (self.rng.randrange(10, 100), 0, 0, 0))
        db.commit()

    # -- transactions ----------------------------------------------------------------

    def new_order(self) -> None:
        db, w, rng = self.db, self.w, self.rng
        d = rng.randrange(1, DISTRICTS + 1)
        c = rng.randrange(1, CUSTOMERS_PER_DISTRICT + 1)
        n_lines = rng.randrange(5, 16)
        db.begin()
        district = db.table("district").get((w, d))
        o_id = self.next_order_id[d]
        self.next_order_id[d] += 1
        db.table("district").update((w, d), district[:3] + (o_id + 1,))
        db.table("customer").get((w, d, c))
        db.table("orders").insert((w, d, o_id), (c, n_lines, 0))
        db.table("new_order").insert((w, d, o_id), (1,))
        total = 0.0
        for line in range(1, n_lines + 1):
            item_id = rng.randrange(1, ITEMS + 1)
            qty = rng.randrange(1, 11)
            item = db.table("item").get((item_id,))
            stock = db.table("stock").get((w, item_id))
            new_qty = stock[0] - qty if stock[0] - qty >= 10 else stock[0] - qty + 91
            db.table("stock").update(
                (w, item_id), (new_qty, stock[1] + qty, stock[2] + 1, stock[3])
            )
            amount = qty * item[1]
            total += amount
            db.table("order_line").insert((w, d, o_id, line), (item_id, qty, amount))
        db.commit()

    def payment(self) -> None:
        db, w, rng = self.db, self.w, self.rng
        d = rng.randrange(1, DISTRICTS + 1)
        c = rng.randrange(1, CUSTOMERS_PER_DISTRICT + 1)
        amount = rng.randrange(100, 500000) / 100.0
        db.begin()
        if rng.random() < 0.6:
            # Spec: 60% of payments select the customer by last name,
            # taking the middle match — exercised via the secondary index.
            matches = sorted(
                db.table("customer").lookup_by("by_last", (f"LAST{c % 12}",))
            )
            if matches:
                c = int(matches[len(matches) // 2][0][1:])
        warehouse = db.table("warehouse").get((w,))
        db.table("warehouse").update((w,), (warehouse[0], warehouse[1], warehouse[2] + amount))
        district = db.table("district").get((w, d))
        db.table("district").update((w, d), (district[0], district[1], district[2] + amount, district[3]))
        customer = db.table("customer").get((w, d, c))
        db.table("customer").update(
            (w, d, c),
            customer[:3] + (customer[3] - amount, customer[4] + amount) + customer[5:],
        )
        db.table("history").insert(
            (w, d, c, self.rng.randrange(1 << 30)), (amount, "payment")
        )
        db.commit()

    def order_status(self) -> None:
        db, w, rng = self.db, self.w, self.rng
        d = rng.randrange(1, DISTRICTS + 1)
        c = rng.randrange(1, CUSTOMERS_PER_DISTRICT + 1)
        db.begin()
        db.table("customer").get((w, d, c))
        last = self.next_order_id[d] - 1
        if last >= 1:
            db.table("orders").get((w, d, last))
            for _ in db.table("order_line").scan_prefix((w, d, last)):
                pass
        db.commit()

    def delivery(self) -> None:
        db, w = self.db, self.w
        db.begin()
        for d in range(1, DISTRICTS + 1):
            o_id = self.next_delivery[d]
            if o_id >= self.next_order_id[d]:
                continue
            self.next_delivery[d] += 1
            db.table("new_order").delete((w, d, o_id))
            order = db.table("orders").get((w, d, o_id))
            if order is None:
                continue
            db.table("orders").update((w, d, o_id), (order[0], order[1], 1))
            total = 0.0
            for _key, row in db.table("order_line").scan_prefix((w, d, o_id)):
                total += row[2]
            c = order[0]
            customer = db.table("customer").get((w, d, c))
            db.table("customer").update(
                (w, d, c), customer[:2] + (customer[2] + total,) + customer[3:]
            )
        db.commit()

    def stock_level(self) -> None:
        db, w, rng = self.db, self.w, self.rng
        d = rng.randrange(1, DISTRICTS + 1)
        threshold = rng.randrange(10, 21)
        db.begin()
        last = self.next_order_id[d] - 1
        low = 0
        for o_id in range(max(1, last - 20), last + 1):
            for _key, row in db.table("order_line").scan_prefix((w, d, o_id)):
                stock = db.table("stock").get((w, row[0]))
                if stock is not None and stock[0] < threshold:
                    low += 1
        db.commit()

    def run_transaction(self) -> str:
        pick = self.rng.random()
        acc = 0.0
        for name, weight in MIX:
            acc += weight
            if pick < acc:
                getattr(self, name)()
                return name
        self.delivery()
        return "delivery"


def run_tpcc(
    fs: FileSystem,
    journal_mode: str = "wal",
    transactions: int = 200,
    seed: int = 99,
    capacity: int = 40 << 20,
) -> TpccResult:
    # A bounded page cache much smaller than the dataset, as in the
    # paper's SQLite runs: order lines / stock / customers miss often.
    db = Database(
        fs, name="tpcc.db", journal_mode=journal_mode, capacity=capacity, cache_pages=128
    )
    driver = TpccDriver(db, seed=seed)
    driver.create_schema()
    driver.load()
    # Warm the working set with some orders so delivery/status have data.
    for _ in range(20):
        driver.new_order()
    fs.take_traces()
    fs.take_bg_traces()

    per_type: Dict[str, int] = {}
    for _ in range(transactions):
        name = driver.run_transaction()
        per_type[name] = per_type.get(name, 0) + 1
    traces = fs.take_traces()
    elapsed = sum(tr.duration_ns(fs.timing.lock_ns) for tr in traces)
    db.close()
    return TpccResult(
        fs_name=fs.name,
        journal_mode=journal_mode,
        transactions=transactions,
        elapsed_ns=elapsed,
        per_type=per_type,
    )
