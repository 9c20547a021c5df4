"""The six request-level workloads.

Each workload is a closed loop with ONE client in one thread (the engine
is an embedded library with a cooperative scheduler). It builds its
engine through the front door only — ``repro.connect``, ``Database``,
``ShardedDatabase.attach_replicas``, ``Runtime``, ``Trod``,
``build_ecommerce_app`` and the ``repro.workload`` generators — generates
its op stream from the seed, and keeps a plain-Python model of what the
engine must answer so every op's result is checked.

Protocol (see ``harness.run_region``): ``setup()`` builds engine + schema
+ load + TROD + warm-up; ``ops()`` is the endless seeded op stream of
``(kind, ...)`` tuples; ``execute(op)`` is the only timed call;
``check(op, out)`` compares with the model (``None`` = right);
``finish()`` closes the timed region; ``verify()`` returns the mismatches
of the whole-run checks; ``close()`` releases files.

Flush policy, identical on every commit measured: ``wal_fsync=False``,
``wal_group_size=1``, default ``Trod(buffer_capacity=65536)`` flushed
inline when full. Every engine is built with an explicit ``storage=``.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from bisect import bisect_right
from collections import Counter
from typing import Any, Iterator

import repro
from repro.apps import build_ecommerce_app
from repro.apps.ecommerce import charge_payment
from repro.core import Trod
from repro.db import Database, ShardedDatabase
from repro.runtime import Runtime
from repro.workload.generators import (
    CheckoutWorkload,
    ConnectionWorkload,
    ShardedWorkload,
)

_ENDLESS = 10**9


class Workload:
    """Base: seed, scale and the parts of the protocol with a default."""

    name = ""
    why = ""
    #: The one op kind latency is reported on (unimodal by construction).
    headline = ""
    #: Ops per second of ``--seconds`` the timed region runs: about the
    #: workload's throughput at reference speed on the commit that defined
    #: the benchmark, so a run of ``--seconds S`` is the fixed work that
    #: took about S seconds there — identical on every commit measured after.
    rate = 1.0
    warmup_ops = 0
    traced = False
    #: The same workload without TROD, where there is one: the trace pass
    #: runs it briefly for the paper's traced-vs-untraced figures.
    twin: "type[Workload] | None" = None

    def __init__(self, seed: int, scale: float = 1.0, workdir: str | None = None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.engine: Any = None
        self.trod: Trod | None = None
        self.warmup_ops = self.scaled(type(self).warmup_ops, floor=4)

    def op_budget(self, seconds: float) -> int:
        """How many ops a run of ``seconds`` executes (at least 40)."""
        return max(40, round(seconds * self.rate))

    def scaled(self, count: int, floor: int = 1) -> int:
        """``count`` shrunk by the self-test's ``scale`` (never grown)."""
        return max(floor, int(count * min(1.0, self.scale)))

    def warm_up(self) -> None:
        """Part of set-up: run the stream's first ops, so plan caches are
        full and tables at their steady size, then ingest their trace —
        the timed region starts with an empty trace buffer, and where its
        inline flushes fall depends on its op count alone."""
        stream = self.ops()
        for _ in range(self.warmup_ops):
            op = next(stream)
            error = self.check(op, self.execute(op))
            if error is not None:
                raise AssertionError(f"{self.name} warm-up {op[0]}: {error}")
        if self.trod is not None:
            self.trod.flush()

    def finish(self) -> None:
        """Timed: ingest every trace event the region produced, so the
        throughput does not depend on where a buffer flush happened to
        fall relative to the deadline."""
        if self.trod is not None:
            self.trod.flush()

    def close(self) -> None:
        self.engine = None
        self.trod = None


# ---------------------------------------------------------------------------
# checkout_traced / checkout_untraced — the paper's §3.7 request path
# ---------------------------------------------------------------------------

#: Without these, checkout latency grows with the cart tables (per-quarter
#: p50 262 -> 1863 µs over 6 000 requests) and no percentile means anything.
_CHECKOUT_INDEXES = (("carts", "cartId"), ("cart_items", "cartId"), ("inventory", "sku"))
_STOCK = 1_000_000  # CheckoutWorkload.seed_database's restock amount


class CheckoutUntraced(Workload):
    name = "checkout_untraced"
    why = (
        "The same order stream with no TROD: the paper's 3.7 baseline and the "
        "bypass workload for every core.* change (prediction: no change here)."
    )
    headline = "order"
    rate = 1800.0
    warmup_ops = 2500
    N_USERS = 1000
    N_SKUS = 100

    def setup(self) -> None:
        self.engine = Database(name=self.name, storage="memory")
        self.runtime = Runtime(self.engine)
        event_names = build_ecommerce_app(self.engine, self.runtime)
        for table, column in _CHECKOUT_INDEXES:
            self.engine.execute(f"CREATE INDEX ix_{table} ON {table} ({column})")
        if self.traced:
            self.trod = Trod(self.engine, event_names=event_names).attach(self.runtime)
        generator = CheckoutWorkload(
            n_users=self.scaled(self.N_USERS, floor=4),
            n_skus=self.scaled(self.N_SKUS, floor=4),
            seed=self.seed,
        )
        generator.seed_database(self.runtime)
        self._requests = generator.requests(_ENDLESS)
        self.orders: list[tuple[str, str]] = []  # (addToCart, checkout) req ids
        self.sold: Counter[str] = Counter()
        # registerUser and restock run one transaction each.
        self.txns = generator.n_users + generator.n_skus
        self.warm_up()

    def ops(self) -> Iterator[tuple]:
        """One op = one order: addToCart, then the 4-hop checkout workflow."""
        for add in self._requests:
            yield ("order", add, next(self._requests))

    def execute(self, op: tuple) -> Any:
        run = self.runtime.execute_request
        return run(op[1]), run(op[2])

    def check(self, op: tuple, out: Any) -> str | None:
        added, placed = out
        for result in out:
            if not result.ok:
                return f"{result.handler} failed: {result.error}"
        cart, _user, sku, qty, _price = op[1].args
        if placed.output["orderId"] != f"order-{cart}":
            return f"order id {placed.output['orderId']!r} for cart {cart!r}"
        self.orders.append((added.req_id, placed.req_id))
        self.sold[sku] += qty
        self.txns += len(added.txn_names) + len(placed.txn_names)
        return None

    def verify(self) -> list[str]:
        problems = []
        db = self.engine
        placed = db.execute("SELECT COUNT(*) FROM orders").scalar()
        if placed != len(self.orders):
            problems.append(f"orders table has {placed}, placed {len(self.orders)}")
        for sku, stock in db.execute("SELECT sku, stock FROM inventory").rows:
            if stock != _STOCK - self.sold[sku]:
                problems.append(f"{sku}: stock {stock}, sold {self.sold[sku]}")
        if self.trod is not None:
            problems.extend(self.verify_trace())
        return problems

    def verify_trace(self) -> list[str]:
        problems = []
        # Requests only: the checks above ran traced too, outside any request.
        traced = self.trod.query(
            "SELECT COUNT(*) FROM Executions"
            " WHERE Status = 'Committed' AND ReqId IS NOT NULL"
        ).scalar()
        if traced != self.txns:
            problems.append(f"Executions has {traced} commits, ran {self.txns}")
        replay = self.trod.replayer.replay_request(self.orders[-1][1])
        if not replay.fidelity:
            problems.append(f"replay of last checkout diverged: {replay.divergences}")
        return problems


class CheckoutTraced(CheckoutUntraced):
    name = "checkout_traced"
    why = (
        "Orders through Runtime + interposition + provenance with TROD attached: "
        "the paper's always-on tracing path (3.7), inline buffer flushes included."
    )
    traced = True
    #: 7 500 orders in a 10-second run, about 165 000 trace events: the
    #: timed region spans two inline flushes of the default buffer and the
    #: closing one (it takes about 13 s at reference speed, not 10).
    rate = 750.0
    warmup_ops = 700
    twin = CheckoutUntraced


# ---------------------------------------------------------------------------
# scan_traced — analytic statements under read provenance
# ---------------------------------------------------------------------------

_REGIONS = ("north", "south", "east", "west")


class ScanUntraced(Workload):
    """The untraced arm of ``scan_traced`` (trace pass only, not a workload)."""

    name = "scan_untraced"
    headline = "agg"
    rate = 150.0
    warmup_ops = 40
    N_ROWS = 1000
    N_GROUPS = 50

    SQL = {
        "agg": "SELECT grp, COUNT(*), SUM(val) FROM items GROUP BY grp ORDER BY grp",
        "filter": "SELECT id, val FROM items WHERE val >= ? AND val < ?",
        "join": (
            "SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.grp"
            " WHERE g.region = ?"
        ),
        "topk": "SELECT id, val FROM items ORDER BY val DESC, id LIMIT 10",
        "probe": "SELECT val FROM items WHERE id = ?",
    }

    def setup(self) -> None:
        rng = random.Random(f"scan-rows:{self.seed}")
        n_rows = self.scaled(self.N_ROWS, floor=100)
        self.items = [
            (i, rng.randrange(self.N_GROUPS), rng.randrange(1000), f"t{i % 7}")
            for i in range(n_rows)
        ]
        self.grps = [(g, _REGIONS[g % 4]) for g in range(self.N_GROUPS)]
        self.engine = Database(name=self.name, storage="memory")
        loader = repro.connect(self.engine)
        loader.execute("CREATE TABLE items (id INTEGER, grp INTEGER, val INTEGER, tag TEXT)")
        loader.execute("CREATE TABLE grps (grp INTEGER, region TEXT)")
        with loader.transaction() as txn:
            for row in self.items:
                txn.execute("INSERT INTO items VALUES (?, ?, ?, ?)", row)
            for row in self.grps:
                txn.execute("INSERT INTO grps VALUES (?, ?)", row)
        loader.execute("CREATE INDEX ix_items_id ON items (id)")
        if self.traced:
            self.trod = Trod(self.engine)
        self.conn = repro.connect(self.engine, trod=self.trod)
        self._rng = random.Random(f"scan-ops:{self.seed}")
        self.warm_up()

    def ops(self) -> Iterator[tuple]:
        rng = self._rng
        n_rows = len(self.items)
        while True:
            yield ("agg",)
            low = rng.randrange(900)  # 10% selectivity: val is uniform on [0, 1000)
            yield ("filter", low, low + 100)
            yield ("join", _REGIONS[rng.randrange(4)])
            yield ("topk",)
            yield ("probe", rng.randrange(n_rows))

    def execute(self, op: tuple) -> Any:
        return self.conn.execute(self.SQL[op[0]], op[1:]).rows

    def check(self, op: tuple, out: Any) -> str | None:
        """Each statement against plain Python over the generated rows."""
        kind = op[0]
        items = self.items
        if kind == "agg":
            groups: dict[int, list[int]] = {}
            for _id, grp, val, _tag in items:
                groups.setdefault(grp, []).append(val)
            expected = [(g, len(v), sum(v)) for g, v in sorted(groups.items())]
        elif kind == "filter":
            expected = sorted((i, v) for i, _g, v, _t in items if op[1] <= v < op[2])
            out = sorted(out)
        elif kind == "join":
            regions = dict(self.grps)
            expected = [(sum(1 for _i, g, _v, _t in items if regions[g] == op[1]),)]
        elif kind == "topk":
            expected = sorted(((i, v) for i, _g, v, _t in items), key=lambda r: (-r[1], r[0]))[:10]
        else:
            expected = [(items[op[1]][2],)]
        if [tuple(row) for row in out] != expected:
            return f"{kind}{op[1:]} returned {len(out)} rows, expected {len(expected)}"
        return None

    def verify(self) -> list[str]:
        if self.trod is None:
            return []
        # Read provenance of one more aggregate: one Read event per row scanned.
        self.conn.execute(self.SQL["agg"]).rows
        last_txn = self.trod.query(
            "SELECT TxnId FROM Executions ORDER BY TxnNum DESC LIMIT 1"
        ).scalar()
        events = self.trod.provenance.event_table_of("items")
        reads = self.trod.query(
            f"SELECT COUNT(*) FROM {events} WHERE Type = 'Read' AND TxnId = ?",
            (last_txn,),
        ).scalar()
        if reads != len(self.items):
            return [f"agg recorded {reads} Read events, scanned {len(self.items)} rows"]
        return []


class ScanTraced(ScanUntraced):
    name = "scan_traced"
    why = (
        "GROUP BY / filter / hash join / top-k / index probe through connect() with "
        "TROD on: the traced row interpreter plus read-provenance ingest do the work."
    )
    traced = True
    rate = 25.0
    twin = ScanUntraced


# ---------------------------------------------------------------------------
# paged_mixed — reads beside writes on the disk tier
# ---------------------------------------------------------------------------


class PagedMixed(Workload):
    name = "paged_mixed"
    why = (
        "ConnectionWorkload mix plus checkpoints on paged storage with the table 4x "
        "the 16-page pool: db.pages and the WAL carry the writes, reads share the tier."
    )
    #: Storage keeps one materialised list of a table's live rows; a write
    #: drops it and the next scanning statement — UPDATE and DELETE scan
    #: too — rebuilds it from the pages (17 ms here, against 2.5 ms over a
    #: current list). ``update`` is the UPDATE that has to rebuild: no
    #: scan ran since the last write. The others are ``update_warm``; the
    #: two together have no meaningful median.
    headline = "update"
    rate = 75.0
    warmup_ops = 75
    N_KEYS = 5300  # ~64 pages of ledger rows
    POOL_PAGES = 16
    CHECKPOINT_EVERY = 250

    _KINDS = (
        ("SELECT balance", "point"),
        ("SELECT acct, balance FROM ledger WHERE acct >=", "range"),
        ("SELECT region", "agg"),
        ("SELECT acct, balance FROM ledger WHERE acct = ? AS OF", "asof"),
        ("DELETE", "delete"),
        ("INSERT", "insert"),
        ("UPDATE", "update"),
    )
    _FULL = "SELECT acct, balance, region FROM ledger"

    def open(self, data_dir: str) -> Database:
        return Database(
            name=self.name,
            storage="paged",
            data_dir=data_dir,
            buffer_pool_pages=self.scaled(self.POOL_PAGES, floor=2),
            wal_group_size=1,
            wal_fsync=False,
        )

    def setup(self) -> None:
        self.data_dir = tempfile.mkdtemp(prefix="paged-", dir=self.workdir)
        self.engine = self.open(self.data_dir)
        self.conn = repro.connect(self.engine)
        n_keys = self.scaled(self.N_KEYS, floor=200)
        self._generator = ConnectionWorkload(n_keys=n_keys, seed=self.seed)
        self._generator.seed(self.conn)
        self.conn.execute("CREATE INDEX ix_ledger_acct ON ledger (acct)")
        # The model of acknowledged writes.
        regions = ConnectionWorkload.REGIONS
        self.rows = {k: (100.0, regions[k % len(regions)]) for k in range(n_keys)}
        #: acct -> [(write number that set it, balance or None)], for AS OF.
        self.history = {k: [(0, 100.0)] for k in range(n_keys)}
        self.bookmarks = [self.conn.last_commit_csn]
        self.by_region = {r: [0, 0.0] for r in regions}
        for balance, region in self.rows.values():
            self.by_region[region][0] += 1
            self.by_region[region][1] += balance
        self._statements = self._generator.statements(_ENDLESS)
        self._issued = 0
        self._rows_listed = False  # a scan ran since the last write
        self.reopen_ms = 0.0
        self.warm_up()

    def ops(self) -> Iterator[tuple]:
        for _coarse, sql, params in self._statements:
            kind = next(k for prefix, k in self._KINDS if sql.startswith(prefix))
            if kind == "update" and self._rows_listed:
                kind = "update_warm"
            yield (kind, sql, params)
            self._issued += 1
            if self._issued % self.CHECKPOINT_EVERY == 0:
                yield ("checkpoint",)

    def execute(self, op: tuple) -> Any:
        kind = op[0]
        if kind == "checkpoint":
            return self.engine.checkpoint()
        sql, params = op[1], op[2]
        if kind == "asof":
            params = params[:-1] + (self.bookmarks[params[-1]],)
        result = self.conn.execute(sql, params)
        return result.rows if result.kind == "select" else result.rowcount

    def _set(self, acct: int, value: tuple | None) -> None:
        old = self.rows.pop(acct, None)
        if old is not None:
            self.by_region[old[1]][0] -= 1
            self.by_region[old[1]][1] -= old[0]
        if value is not None:
            self.rows[acct] = value
            self.by_region[value[1]][0] += 1
            self.by_region[value[1]][1] += value[0]
        self.history.setdefault(acct, []).append(
            (len(self.bookmarks), None if value is None else value[0])
        )

    def check(self, op: tuple, out: Any) -> str | None:
        kind = op[0].removesuffix("_warm")
        if kind == "checkpoint":
            return None
        params = op[2]
        rows = self.rows
        if kind in ("range", "agg"):
            self._rows_listed = True
        if kind == "point":
            expected: Any = [rows[params[0]]] if params[0] in rows else []
        elif kind == "range":
            expected = [(k, rows[k][0]) for k in range(params[0], params[1]) if k in rows]
        elif kind == "agg":
            expected = [
                (region, count, total)
                for region, (count, total) in sorted(self.by_region.items())
                if count
            ]
        elif kind == "asof":
            versions = self.history.get(params[0], [])
            at = bisect_right(versions, params[1], key=lambda v: v[0]) - 1
            balance = versions[at][1] if at >= 0 else None
            expected = [] if balance is None else [(params[0], balance)]
        else:  # a write: apply it to the model, then bookmark the commit
            if kind == "insert":
                expected = 1
                self._set(params[0], (params[1], params[2]))
            else:
                acct = params[-1]
                expected = 1 if acct in rows else 0
                if expected and kind == "delete":
                    self._set(acct, None)
                elif expected:
                    self._set(acct, (rows[acct][0] + params[0], rows[acct][1]))
            # An UPDATE or DELETE that matched nothing scanned and wrote nothing.
            self._rows_listed = not expected
            self.bookmarks.append(self.conn.last_commit_csn)
        if kind in ("point", "range", "agg", "asof"):
            out = [tuple(row) for row in out]
        if out != expected:
            return f"{kind}{params} answered {out!r}, model says {expected!r}"
        return None

    def _matches_model(self, db: Database, label: str) -> list[str]:
        stored = sorted(tuple(row) for row in db.execute(self._FULL).rows)
        model = sorted((k, b, r) for k, (b, r) in self.rows.items())
        if stored != model:
            return [f"{label}: {len(stored)} rows stored, model has {len(model)}"]
        return []

    def verify(self) -> list[str]:
        """Durability: every acknowledged write survives two kinds of restart."""
        problems = self._matches_model(self.engine, "live engine")
        # 1. Crash: copy the files while the engine is still open (dirty
        #    pages and Python-side buffers are lost) and recover the copy
        #    from its WAL tail.
        crashed = self.data_dir + "-crash"
        shutil.copytree(self.data_dir, crashed)
        copy = self.open(crashed)
        try:
            problems += self._matches_model(copy, "crash copy")
        finally:
            copy.close()
            shutil.rmtree(crashed, ignore_errors=True)
        # 2. Clean restart of the original; timed as the cold-start figure.
        self.disk_bytes = sum(
            os.path.getsize(os.path.join(self.data_dir, f))
            for f in os.listdir(self.data_dir)
        )
        self.engine.close()
        start = time.perf_counter()
        self.engine = self.open(self.data_dir)
        reopened = self._matches_model(self.engine, "reopened")
        self.reopen_ms = (time.perf_counter() - start) * 1000.0
        self.conn = repro.connect(self.engine)
        return problems + reopened

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            shutil.rmtree(self.data_dir, ignore_errors=True)
        super().close()


# ---------------------------------------------------------------------------
# cluster_mix — sharding + 2PC + synchronous log shipping
# ---------------------------------------------------------------------------


class ClusterMix(Workload):
    name = "cluster_mix"
    why = (
        "4 shards x 1 sync replica through connect(): routed points, scatter ranges, "
        "partial aggregates and cross-key transfers; sharding/2PC/shipping idle elsewhere."
    )
    headline = "transfer"
    rate = 1800.0
    warmup_ops = 2500
    N_KEYS = 2000
    N_SHARDS = 4

    SQL = {
        "point": "SELECT balance FROM accounts WHERE acct = ?",
        "range": (
            "SELECT acct, balance FROM accounts"
            " WHERE acct >= ? AND acct < ? ORDER BY acct"
        ),
        "agg": "SELECT COUNT(*), SUM(balance) FROM accounts",
        "debit": "UPDATE accounts SET balance = balance - ? WHERE acct = ?",
        "credit": "UPDATE accounts SET balance = balance + ? WHERE acct = ?",
    }
    _RENAMED = {"scan": "range", "aggregate": "agg"}

    def setup(self) -> None:
        shards = [
            Database(name=f"{self.name}-shard{i}", storage="memory")
            for i in range(self.N_SHARDS)
        ]
        self.engine = ShardedDatabase(
            databases=shards, shard_keys={"accounts": "acct"}, name=self.name
        )
        n_keys = self.scaled(self.N_KEYS, floor=100)
        self._generator = ShardedWorkload(n_keys=n_keys, seed=self.seed)
        self._generator.seed_database(self.engine)
        self.engine.attach_replicas(1, mode="sync")
        self.conn = repro.connect(self.engine)
        self.balances = {k: 100.0 for k in range(n_keys)}
        self.decisions_before = self.engine.cluster_stats["decisions_logged"]
        self.transfers = 0
        self._operations = self._generator.operations(
            _ENDLESS, read_ratio=0.5, scan_ratio=0.2
        )
        self.warm_up()

    def ops(self) -> Iterator[tuple]:
        for op in self._operations:
            yield (self._RENAMED.get(op[0], op[0]),) + op[1:]

    def execute(self, op: tuple) -> Any:
        kind = op[0]
        if kind == "transfer":
            _kind, source, target, amount = op
            with self.conn.transaction() as txn:
                debited = txn.execute(self.SQL["debit"], (amount, source)).rowcount
                credited = txn.execute(self.SQL["credit"], (amount, target)).rowcount
            return debited, credited
        return self.conn.execute(self.SQL[kind], op[1:]).rows

    def check(self, op: tuple, out: Any) -> str | None:
        kind = op[0]
        balances = self.balances
        if kind == "transfer":
            expected: Any = (1, 1)
            balances[op[1]] -= op[3]
            balances[op[2]] += op[3]
            self.transfers += 1
        elif kind == "point":
            expected = [(balances[op[1]],)]
        elif kind == "range":
            expected = [(k, balances[k]) for k in range(op[1], op[2]) if k in balances]
        else:
            expected = [(len(balances), 100.0 * len(balances))]
        if kind != "transfer":
            out = [tuple(row) for row in out]
        if out != expected:
            return f"{kind}{op[1:]} answered {out!r}, model says {expected!r}"
        return None

    def verify(self) -> list[str]:
        problems = []
        count, total = self.conn.execute(self.SQL["agg"]).rows[0]
        if (count, total) != (len(self.balances), 100.0 * len(self.balances)):
            problems.append(f"balance not conserved: {count} accounts sum {total}")
        for store, replica_set in self.engine.replica_sets.items():
            primary = self.engine.shard_named(store).table_rows("accounts")
            for replica in replica_set.replicas:
                if replica.database.table_rows("accounts") != primary:
                    problems.append(f"{replica.name} differs from primary {store}")
        decided = self.engine.cluster_stats["decisions_logged"] - self.decisions_before
        if decided != self.transfers:
            problems.append(f"{decided} 2PC decisions for {self.transfers} transfers")
        return problems


# ---------------------------------------------------------------------------
# debug_replay — the developer's side of the paper
# ---------------------------------------------------------------------------


def _charge_payment_patched(ctx, order_id, amount):
    """The 'fixed' handler retroactive runs test: same behaviour, new code."""
    return charge_payment(ctx, order_id, amount)


class DebugReplay(CheckoutTraced):
    name = "debug_replay"
    why = (
        "Replay, retroactive re-execution and provenance queries over a captured "
        "order history: core.replay/retroactive and provenance restore dominate."
    )
    headline = "replay"
    rate = 22.0
    warmup_ops = 10
    twin = None
    N_USERS = 50
    N_SKUS = 20
    HISTORY = 800  # orders captured during set-up

    QUERY_POINT = "SELECT TxnId, HandlerName FROM Executions WHERE ReqId = ?"
    QUERY_GROUP = (
        "SELECT HandlerName, COUNT(*) FROM Executions"
        " WHERE Status = 'Committed' GROUP BY HandlerName ORDER BY HandlerName"
    )

    def warm_up(self) -> None:
        """Set-up captures the history the timed ops debug, and flushes it."""
        history = CheckoutTraced.ops(self)
        for _ in range(self.scaled(self.HISTORY, floor=12)):
            op = next(history)
            error = CheckoutTraced.check(self, op, CheckoutTraced.execute(self, op))
            if error is not None:
                raise AssertionError(f"history capture: {error}")
        self.trod.flush()
        counts = Counter(
            {"registerUser": self.scaled(self.N_USERS, floor=4),
             "restock": self.scaled(self.N_SKUS, floor=4)}
        )
        for handler in ("addToCart", "validateCart", "reserveInventory",
                        "chargePayment", "createOrder"):
            counts[handler] = len(self.orders)
        self.expected_groups = sorted(counts.items())
        super().warm_up()

    def ops(self) -> Iterator[tuple]:
        """Cycle the debugging ops over past orders, replay twice per cycle.

        Orders are visited with a fixed stride from a seeded start, so any
        run covers the history evenly whatever the seed: replay cost
        depends on how far the request lies from a provenance checkpoint.
        """
        n = len(self.orders)
        at = random.Random(f"replay:{self.seed}").randrange(n)
        stride = max(1, int(n * 0.381966))
        while True:
            for kind in ("replay", "qpoint", "retro", "replay", "qgroup"):
                at = (at + stride) % n
                yield (kind, at)

    def execute(self, op: tuple) -> Any:
        kind = op[0]
        added, placed = self.orders[op[1]]
        if kind == "replay":
            return self.trod.replayer.replay_request(placed)
        if kind == "retro":
            return self.trod.retroactive.run(
                [added, placed], patches={"chargePayment": _charge_payment_patched}
            )
        if kind == "qpoint":
            return self.trod.query(self.QUERY_POINT, (placed,)).rows
        return self.trod.query(self.QUERY_GROUP).rows

    def check(self, op: tuple, out: Any) -> str | None:
        kind = op[0]
        if kind == "replay":
            return None if out.fidelity else f"diverged: {out.divergences}"
        if kind == "retro":
            return None if out.all_ok else f"retroactive run failed: {out.summary()}"
        if kind == "qpoint":
            handlers = sorted(row[1] for row in out)
            expected = ["chargePayment", "createOrder", "reserveInventory", "validateCart"]
            return None if handlers == expected else f"request ran {handlers}"
        found = [tuple(row) for row in out]
        return None if found == self.expected_groups else f"groups {found}"


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        CheckoutTraced,
        CheckoutUntraced,
        ScanTraced,
        PagedMixed,
        ClusterMix,
        DebugReplay,
    )
}
