"""Request workload generators for the benchmarks.

Each generator produces deterministic request streams against one of the
case-study applications, plus helpers to seed the database. The
:class:`ProvenanceFiller` synthesizes provenance rows directly — the E8
query-latency benchmark needs event counts far larger than executing real
requests would produce in reasonable bench time.
"""

from __future__ import annotations

from typing import Iterator

from repro.db.database import Database
from repro.runtime.workflow import Request, Runtime
from repro.workload.distributions import UniformSampler, ZipfSampler


class ForumWorkload:
    """Subscribe/fetch mix against the Moodle app, with optional racy pairs."""

    def __init__(
        self,
        n_users: int = 100,
        n_forums: int = 10,
        theta: float = 0.99,
        seed: int = 0,
    ):
        self.n_users = n_users
        self.n_forums = n_forums
        self._users = ZipfSampler(n_users, theta=theta, seed=seed)
        self._forums = ZipfSampler(n_forums, theta=theta, seed=seed + 1)
        self._mix = UniformSampler(100, seed=seed + 2)

    def requests(self, count: int, fetch_ratio: float = 0.2) -> Iterator[Request]:
        threshold = int(fetch_ratio * 100)
        for _ in range(count):
            forum = f"F{self._forums.sample()}"
            if self._mix.sample() < threshold:
                yield Request("fetchSubscribers", (forum,))
            else:
                user = f"U{self._users.sample()}"
                yield Request("subscribeUser", (user, forum))

    @staticmethod
    def racy_pair(user: str = "U1", forum: str = "F2") -> list[Request]:
        """Two subscriptions for the same (user, forum) — the MDL-59854 pair."""
        return [
            Request("subscribeUser", (user, forum)),
            Request("subscribeUser", (user, forum)),
        ]

    #: The paper's interleaving: R1 check, R2 check, R2 insert, R1 insert.
    RACY_SCHEDULE = [0, 1, 1, 0]
    #: A benign interleaving: R1 completes before R2 starts.
    SERIAL_SCHEDULE = [0, 0, 1]


class CheckoutWorkload:
    """Checkout workflows against the e-commerce app (4 RPC hops each)."""

    def __init__(self, n_users: int = 50, n_skus: int = 20, seed: int = 0):
        self.n_users = n_users
        self.n_skus = n_skus
        self._users = UniformSampler(n_users, seed=seed)
        self._skus = ZipfSampler(n_skus, theta=0.8, seed=seed + 1)
        self._counter = 0

    def seed_database(self, runtime: Runtime) -> None:
        """Register users and stock inventory (not part of measurements)."""
        for user in range(self.n_users):
            runtime.submit(
                "registerUser",
                f"U{user}",
                f"u{user}@example.com",
                f"4000-0000-0000-{user:04d}",
            )
        for sku in range(self.n_skus):
            runtime.submit("restock", f"SKU{sku}", 1_000_000)

    def requests(self, count: int) -> Iterator[Request]:
        """Each request is an add-to-cart followed by a checkout."""
        for _ in range(count):
            self._counter += 1
            cart = f"C{self._counter}"
            user = f"U{self._users.sample()}"
            sku = f"SKU{self._skus.sample()}"
            yield Request("addToCart", (cart, user, sku, 1, 9.99))
            yield Request("checkout", (cart, user))


class MediaWikiWorkload:
    """Page create/edit/read mix against the MediaWiki app."""

    def __init__(self, n_pages: int = 20, seed: int = 0):
        self.n_pages = n_pages
        self._pages = ZipfSampler(n_pages, theta=0.9, seed=seed)
        self._mix = UniformSampler(100, seed=seed + 1)
        self._edit_counter = 0

    def seed_database(self, runtime: Runtime) -> None:
        for page in range(self.n_pages):
            runtime.submit(
                "createPage", f"P{page}", f"Page {page}", f"content of {page}"
            )

    def requests(self, count: int, read_ratio: float = 0.3) -> Iterator[Request]:
        threshold = int(read_ratio * 100)
        for _ in range(count):
            page = f"P{self._pages.sample()}"
            if self._mix.sample() < threshold:
                yield Request("pageHistory", (page,))
            else:
                self._edit_counter += 1
                yield Request(
                    "editPage",
                    (page, f"revision {self._edit_counter} of {page}", None),
                )

    @staticmethod
    def racy_edit_pair(page: str = "P1", url: str = "http://x.org") -> list[Request]:
        """Two edits of one page — the MW-44325/MW-39225 shape."""
        return [
            Request("editPage", (page, "edit A content", url)),
            Request("editPage", (page, "edit B!", url)),
        ]

    #: Fully interleave the two 3-transaction edits.
    RACY_SCHEDULE = [0, 1, 0, 1, 0, 1]


class ProfileWorkload:
    """Profile reads/updates with a configurable violation injection rate."""

    def __init__(self, n_users: int = 20, seed: int = 0):
        self.n_users = n_users
        self._users = UniformSampler(n_users, seed=seed)
        self._mix = UniformSampler(100, seed=seed + 1)

    def seed_database(self, runtime: Runtime) -> None:
        for user in range(self.n_users):
            name = f"user{user}"
            runtime.submit(
                "createProfile", name, f"{name}@example.com", auth_user=name
            )

    def requests(
        self, count: int, violation_ratio: float = 0.05
    ) -> Iterator[Request]:
        threshold = int(violation_ratio * 100)
        for i in range(count):
            victim = f"user{self._users.sample()}"
            if self._mix.sample() < threshold:
                yield Request(
                    "updateProfileInsecure",
                    (victim, f"defaced #{i}"),
                    auth_user="attacker",
                )
            elif i % 3 == 0:
                yield Request(
                    "updateProfile", (victim, f"bio #{i}"), auth_user=victim
                )
            else:
                yield Request("viewProfile", (victim,), auth_user=victim)


class ShardedWorkload:
    """A key-value mix exercising a hash-sharded cluster end to end.

    Deterministic stream of point reads (routed to one shard), range
    scans and aggregates (scatter-gather), single-key updates, and
    cross-key transfers — the transfers routinely span shards, so they
    commit through the coordinator's 2PC and populate the aligned log.
    Key popularity is Zipfian, matching the skew real key-value traffic
    shows (hot keys concentrate on a few shards).
    """

    TABLE_DDL = "CREATE TABLE accounts (acct INTEGER, balance FLOAT, owner TEXT)"

    def __init__(self, n_keys: int = 500, theta: float = 0.99, seed: int = 0):
        self.n_keys = n_keys
        self._keys = ZipfSampler(n_keys, theta=theta, seed=seed)
        self._mix = UniformSampler(100, seed=seed + 1)
        self._spans = UniformSampler(max(2, n_keys // 10), seed=seed + 2)

    def seed_database(self, sharded) -> None:
        """Create and load the accounts table (not part of measurements)."""
        sharded.execute(self.TABLE_DDL)
        gtxn = sharded.begin()
        for key in range(self.n_keys):
            sharded.execute(
                "INSERT INTO accounts VALUES (?, ?, ?)",
                (key, 100.0, f"owner-{key}"),
                txn=gtxn,
            )
        gtxn.commit()

    def operations(
        self,
        count: int,
        read_ratio: float = 0.5,
        scan_ratio: float = 0.2,
    ) -> Iterator[tuple]:
        """``(kind, *args)`` tuples: point / scan / aggregate / transfer."""
        read_mark = int(read_ratio * 100)
        scan_mark = read_mark + int(scan_ratio * 100)
        for _ in range(count):
            roll = self._mix.sample()
            key = self._keys.sample()
            if roll < read_mark:
                yield ("point", key)
            elif roll < scan_mark:
                if roll % 2 == 0:
                    yield ("scan", key, key + self._spans.sample() + 1)
                else:
                    yield ("aggregate",)
            else:
                other = (key + self._spans.sample() + 1) % self.n_keys
                if other == key:
                    yield ("point", key)
                else:
                    yield ("transfer", key, other, 1.0)

    def apply(self, sharded, op: tuple) -> None:
        """Execute one operation against a :class:`ShardedDatabase`."""
        kind = op[0]
        if kind == "point":
            sharded.execute(
                "SELECT balance FROM accounts WHERE acct = ?", (op[1],)
            )
        elif kind == "scan":
            sharded.execute(
                "SELECT acct, balance FROM accounts "
                "WHERE acct >= ? AND acct < ? ORDER BY acct",
                (op[1], op[2]),
            )
        elif kind == "aggregate":
            sharded.execute("SELECT COUNT(*), SUM(balance) FROM accounts")
        else:  # transfer: debit one key, credit another, one atomic commit
            _kind, src, dst, amount = op
            gtxn = sharded.begin()
            sharded.execute(
                "UPDATE accounts SET balance = balance - ? WHERE acct = ?",
                (amount, src),
                txn=gtxn,
            )
            sharded.execute(
                "UPDATE accounts SET balance = balance + ? WHERE acct = ?",
                (amount, dst),
                txn=gtxn,
            )
            gtxn.commit()

    def run(self, sharded, count: int, **ratios) -> dict[str, int]:
        """Drive ``count`` operations; returns per-kind execution counts."""
        executed: dict[str, int] = {}
        for op in self.operations(count, **ratios):
            self.apply(sharded, op)
            executed[op[0]] = executed.get(op[0], 0) + 1
        return executed


class ReplicatedReadWorkload:
    """Read-heavy session traffic against a replicated database.

    Drives one :func:`repro.connect` connection per session over a
    replicated engine (a ``ReplicaSet`` or a ``ShardedDatabase`` with
    replicas attached): most operations are
    Zipf-popular point reads served by replicas; the rest update the
    chosen row and immediately read it back *through the same
    connection* — the read-your-writes probe. In async ship mode replicas
    are only caught up every ``ship_every`` operations, so those probes
    routinely race replication lag and must be saved by the session token
    (stale fallback or forced catch-up), never by luck.
    """

    TABLE_DDL = "CREATE TABLE kv (k INTEGER, val INTEGER)"

    def __init__(
        self,
        n_keys: int = 100,
        n_sessions: int = 8,
        theta: float = 0.9,
        seed: int = 0,
    ):
        self.n_keys = n_keys
        self.n_sessions = n_sessions
        self._keys = ZipfSampler(n_keys, theta=theta, seed=seed)
        self._sessions = UniformSampler(n_sessions, seed=seed + 1)
        self._mix = UniformSampler(100, seed=seed + 2)
        self._counter = 0

    def seed_database(self, database) -> None:
        """Create and fill the kv table (works on plain and sharded DBs)."""
        database.execute(self.TABLE_DDL)
        txn = database.begin()
        for key in range(self.n_keys):
            database.execute(
                "INSERT INTO kv VALUES (?, ?)", (key, 0), txn=txn
            )
        txn.commit()

    def run(
        self,
        engine,
        count: int,
        write_ratio: float = 0.2,
        ship_every: int | None = 25,
        read_preference: str = "replica",
    ) -> dict[str, int]:
        """Drive ``count`` operations; returns op counts + routing counters.

        The routing counters (``replica_reads`` / ``primary_reads`` /
        ``stale_fallbacks`` / ``catch_up_waits``) are this run's share of
        the engine's ``cluster_stats`` (its replica sets' ``stats``).
        Raises :class:`~repro.errors.ReplicationError` if a session ever
        fails to read its own write — the invariant this workload exists
        to hammer.
        """
        from repro.db.connection import connect
        from repro.db.replication import Session
        from repro.errors import ReplicationError

        conns = [
            connect(
                engine, session=Session(f"s{i}"), read_preference=read_preference
            )
            for i in range(self.n_sessions)
        ]

        def routing_counters() -> dict[str, int]:
            stats = engine.cluster_stats
            return {
                key: stats.get(key, 0)
                for key in (
                    "replica_reads",
                    "primary_reads",
                    "stale_fallbacks",
                    "catch_up_waits",
                )
            }

        before = routing_counters()
        write_mark = int(write_ratio * 100)
        counts = {"reads": 0, "writes": 0, "ryw_checks": 0}
        for i in range(count):
            conn = conns[self._sessions.sample()]
            key = self._keys.sample()
            if self._mix.sample() < write_mark:
                self._counter += 1
                conn.execute(
                    "UPDATE kv SET val = ? WHERE k = ?", (self._counter, key)
                )
                observed = conn.execute(
                    "SELECT val FROM kv WHERE k = ?", (key,)
                ).scalar()
                if observed != self._counter:
                    raise ReplicationError(
                        f"session {conn.session.name} wrote "
                        f"val={self._counter} to k={key} but read back "
                        f"{observed!r}"
                    )
                counts["writes"] += 1
                counts["ryw_checks"] += 1
            else:
                conn.execute("SELECT val FROM kv WHERE k = ?", (key,))
                counts["reads"] += 1
            if ship_every and i % ship_every == ship_every - 1:
                engine.catch_up()
        for key, value in routing_counters().items():
            counts[key] = value - before[key]
        return counts


class ConnectionWorkload:
    """One statement stream, any engine: the ``repro.connect()`` workload.

    Produces a deterministic mix of inserts, updates, deletes, point and
    range reads, aggregates, and ``AS OF`` probes as plain ``(kind, sql,
    params)`` tuples — written once against the Connection API and run
    unchanged over single-node, sharded, and replicated engines. The
    conformance matrix (``tests/integration/test_conformance.py``) drives
    the *same* stream through every engine, storage, tracing, read
    preference and failover cell and asserts identical results;
    :meth:`run` returns per-statement result fingerprints to make that
    comparison trivial.

    ``AS OF`` probes reference commit positions bookmarked *through the
    connection* (``conn.last_commit_csn``) after each write, because the
    CSN space is engine-specific: local CSNs on one node, global CSNs on
    a cluster. The bookmark indices line up across engines even though
    the CSN values may not.
    """

    TABLE_DDL = (
        "CREATE TABLE ledger (acct INTEGER, balance FLOAT, region TEXT)"
    )
    REGIONS = ("north", "south", "east", "west")

    def __init__(self, n_keys: int = 48, seed: int = 0):
        self.n_keys = n_keys
        self._keys = ZipfSampler(n_keys, theta=0.8, seed=seed)
        self._mix = UniformSampler(100, seed=seed + 1)
        self._amounts = UniformSampler(500, seed=seed + 2)
        self._counter = 0

    def seed(self, conn) -> None:
        """Create and load the ledger through the connection under test.

        Accepts a :class:`~repro.db.connection.ConnectionPool` too — the
        whole seed then runs on one borrowed connection.
        """
        if hasattr(conn, "checkout"):
            from repro.workload.harness import checked_out

            with checked_out(conn) as borrowed:
                self.seed(borrowed)
            return
        conn.execute(self.TABLE_DDL)
        for key in range(self.n_keys):
            conn.execute(
                "INSERT INTO ledger VALUES (?, ?, ?)",
                (key, 100.0, self.REGIONS[key % len(self.REGIONS)]),
            )

    def statements(self, count: int) -> Iterator[tuple]:
        """``(kind, sql, params)``; kind 'asof' params end with a bookmark
        *index* the runner resolves to that engine's recorded CSN."""
        for _ in range(count):
            roll = self._mix.sample()
            key = self._keys.sample()
            if roll < 30:
                yield (
                    "read",
                    "SELECT balance, region FROM ledger WHERE acct = ?",
                    (key,),
                )
            elif roll < 40:
                yield (
                    "read",
                    "SELECT acct, balance FROM ledger "
                    "WHERE acct >= ? AND acct < ? ORDER BY acct",
                    (key, key + 8),
                )
            elif roll < 50:
                yield (
                    "read",
                    "SELECT region, COUNT(*), SUM(balance) FROM ledger "
                    "GROUP BY region ORDER BY region",
                    (),
                )
            elif roll < 58 and self._counter > 0:
                # Probe a historical state: bookmark index in [0, writes).
                yield (
                    "asof",
                    "SELECT acct, balance FROM ledger "
                    "WHERE acct = ? AS OF ?",
                    (key, self._amounts.sample() % self._counter),
                )
            elif roll < 66:
                self._counter += 1
                yield (
                    "write",
                    "DELETE FROM ledger WHERE acct = ?",
                    (key,),
                )
            elif roll < 74:
                self._counter += 1
                yield (
                    "write",
                    "INSERT INTO ledger VALUES (?, ?, ?)",
                    (
                        self.n_keys + self._counter,
                        float(self._amounts.sample()),
                        self.REGIONS[self._counter % len(self.REGIONS)],
                    ),
                )
            else:
                self._counter += 1
                yield (
                    "write",
                    "UPDATE ledger SET balance = balance + ? WHERE acct = ?",
                    (float(self._amounts.sample() % 50), key),
                )

    def run(self, conn, count: int, catch_up_every: int | None = None) -> list:
        """Drive ``count`` statements; returns result fingerprints.

        A fingerprint is ``(kind, sorted rows)`` for reads and ``(kind,
        rowcount)`` for writes — rows are sorted so engines that merge
        shard streams in a different order still compare equal.
        ``catch_up_every`` periodically synchronizes replicas on engines
        that have them (no-op elsewhere).

        ``conn`` may also be a :class:`~repro.db.connection.
        ConnectionPool`: each statement then borrows a pooled connection
        (checkout/checkin) instead of holding one for the whole run.
        Pooled connections share a session, so the fingerprints are
        identical either way — the pooled-vs-dedicated differential
        test relies on that.
        """
        from repro.workload.harness import checked_out

        pool = conn if hasattr(conn, "checkout") else None
        engine = conn.engine
        catch_up = getattr(engine, "catch_up", None)  # a lone Database has none

        def run_statement(sql, params):
            if pool is None:
                return conn.execute(sql, params)
            with checked_out(pool) as borrowed:
                result = borrowed.execute(sql, params)
                if result.kind == "select" and result.streaming:
                    result.rows  # drain before the connection goes back
                return result

        bookmarks: list[int] = [engine.last_commit_csn]
        out = []
        for i, (kind, sql, params) in enumerate(self.statements(count)):
            if kind == "asof":
                params = params[:-1] + (bookmarks[params[-1]],)
            result = run_statement(sql, params)
            if kind == "write":
                bookmarks.append(engine.last_commit_csn)
                out.append((kind, result.rowcount))
            else:
                out.append((kind, sorted(result.rows)))
            if catch_up is not None and catch_up_every and i % catch_up_every == (
                catch_up_every - 1
            ):
                catch_up()
        return out


class ProvenanceFiller:
    """Bulk-synthesizes provenance rows for the query-scaling bench (E8).

    Generates a realistic shape: for every synthetic transaction, one
    ``Executions`` row plus one event row, with a zipfian user/forum
    distribution so the paper's duplicate-hunting query has non-trivial
    selectivity.
    """

    def __init__(self, provenance_db: Database, event_table: str = "ForumEvents"):
        self.db = provenance_db
        self.event_table = event_table

    def fill(
        self,
        n_events: int,
        n_users: int = 1000,
        n_forums: int = 100,
        duplicate_every: int = 1000,
        seed: int = 0,
    ) -> int:
        """Insert ``n_events`` txn+event row pairs; returns rows written."""
        users = ZipfSampler(n_users, seed=seed)
        forums = ZipfSampler(n_forums, seed=seed + 1)
        txn = self.db.begin()
        written = 0
        try:
            for i in range(n_events):
                txn_name = f"TXN{i + 1_000_000}"
                user = f"U{users.sample()}"
                forum = f"F{forums.sample()}"
                kind = "Insert" if i % 3 else "Read"
                if duplicate_every and i % duplicate_every == duplicate_every - 1:
                    # Inject a duplicate pair for the detection query.
                    user, forum, kind = "U1", "F2", "Insert"
                self.db.insert_row(
                    "Executions",
                    {
                        "TxnId": txn_name,
                        "TxnNum": i + 1_000_000,
                        "Timestamp": i,
                        "HandlerName": "subscribeUser" if kind == "Insert" else "fetchSubscribers",
                        "ReqId": f"R{i + 1_000_000}",
                        "Metadata": "func:DB.insert" if kind == "Insert" else "func:DB.executeQuery",
                        "Isolation": "SERIALIZABLE",
                        "Status": "Committed",
                        "Csn": i + 1,
                        "SnapshotCsn": i,
                        "AuthUser": user,
                    },
                    txn=txn,
                )
                self.db.insert_row(
                    self.event_table,
                    {
                        "TxnId": txn_name,
                        "TxnNum": i + 1_000_000,
                        "Type": kind,
                        "Query": "synthetic",
                        "Csn": i + 1 if kind == "Insert" else None,
                        "Seq": i + 1,
                        "RowId": i + 1,
                        "UserId": user,
                        "Forum": forum,
                    },
                    txn=txn,
                )
                written += 2
            txn.commit()
        except Exception:
            txn.abort()
            raise
        return written
