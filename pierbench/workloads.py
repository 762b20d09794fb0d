"""The four benchmark workloads.

Every workload builds its inputs from the seed alone, hands the program
only those generated rows and statements, and keeps its own copy of the
rows in a :class:`~pierbench.oracle.Reference` to check every answer.

A workload exposes ``setup()`` (build the deployment, load the data,
settle), ``step(index)`` (one closed-loop operation, or one virtual
second of the standing feed), ``counters()`` (the program's own message,
byte and event counters) and ``check()`` (classify every recorded
operation against the reference, after the timed phase).

Why these four (see README.md for the metric table):

* ``join`` -- the message- and byte-heavy path: DHT rehash with
  ``put_batch``, Chord routing, sizing of wide payloads, join and exchange
  operators.  Bypasses aggregation trees and the continuous-query code.
* ``aggregate`` -- dissemination, the distribution tree, hierarchical
  aggregation, proxy and executor install, under three modes whose message
  costs differ by two orders of magnitude.  No DHT data moves.
* ``standing`` -- the only workload that exercises ``repro.cq`` (panes,
  epochs, watermarks, shared-plan fan-out), the append path and
  timer-driven work.
* ``physical`` -- the only workload on loopback UDP sockets, through
  ``runtime.physical``, ``runtime.codec`` and ``udpcc``; its answer time
  is wall time a user waits.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from pierbench.oracle import INCOMPLETE, OK, WRONG, Reference, check_groups, check_rows

LONG_LIFETIME = 10_000_000.0  # outlives any run; the 600 s default empties join answers

VERDICT_UNCOVERED = "uncovered"


@dataclass
class OpRecord:
    """One operation as the client saw it."""

    kind: str                       # which statement or subscription
    wall_s: float                   # wall seconds the client spent on it
    answer_s: float                 # runtime clock: submit (or window end) -> complete answer
    first_row_s: Optional[float]    # runtime clock: submit (or window end) -> first row
    last_row_s: Optional[float] = None
    rows: List[Dict[str, Any]] = field(default_factory=list)
    completed: bool = True
    coverage: float = 1.0
    verdict: str = OK
    extra: Dict[str, Any] = field(default_factory=dict)


def _op_rng(seed: int, index: int) -> random.Random:
    """Per-operation randomness, independent of how many ops ran before."""
    return random.Random(seed * 1_000_003 + index * 7919 + 17)


class Workload:
    """Shared scaffolding: the network handle, the op log, counters."""

    name = "abstract"
    simulated = True
    # A run repeats episodes of this many steps, each on a fresh
    # deployment from the same seed (see ``pierbench.run.Phase``).
    episode_steps: int
    # op_wall_s.p50 is the median over consecutive groups of this many
    # operations of their mean wall time, so a rotation of statements with
    # different costs reads as one per-query latency.
    wall_group = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.reference = Reference()
        self.network = None
        self.records: List[OpRecord] = []

    # -- lifecycle --------------------------------------------------------- #
    def setup(self) -> None:
        self.close()
        self.records = []
        self.network = self.build()

    def build(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        if self.network is not None:
            self.network.close()
            self.network = None

    def counters(self) -> Dict[str, float]:
        environment = self.network.environment
        return {
            "messages": environment.stats.messages_sent,
            "bytes": environment.stats.bytes_sent,
            "events": environment.scheduler.events_dispatched,
        }

    def step(self, index: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


# ----------------------------------------------------------------------------- #
# One-shot query workloads (join, aggregate, physical)
# ----------------------------------------------------------------------------- #
@dataclass
class Statement:
    """One statement of a closed-loop rotation with its reference check."""

    kind: str
    sql: Optional[str]            # PIER SQL with a ``{timeout}`` slot
    check: Callable[[List[Dict[str, Any]]], str]
    options: Dict[str, Any] = field(default_factory=dict)
    plan: Optional[Callable[[float], Any]] = None  # builds a QueryPlan instead of SQL


class OneShotWorkload(Workload):
    """A single client running a closed loop over a fixed rotation."""

    timeout_range = (9.5, 10.5)

    def statements(self) -> List[Statement]:  # pragma: no cover - abstract
        raise NotImplementedError

    def options_for(self, index: int) -> Dict[str, Any]:
        return {}

    def kind_for(self, index: int, statement: Statement) -> str:
        return statement.kind

    def setup(self) -> None:
        super().setup()
        self._rotation = self.statements()

    def statement_for(self, index: int) -> int:
        return index % len(self._rotation)

    def step(self, index: int) -> None:
        position = self.statement_for(index)
        statement = self._rotation[position]
        low, high = self.timeout_range
        timeout = round(_op_rng(self.seed, index).uniform(low, high), 3)
        query = statement.plan(timeout) if statement.plan else statement.sql.format(timeout=timeout)
        options = dict(statement.options)
        options.update(self.options_for(index))
        network = self.network
        arrivals: List[float] = []
        stats = network.environment.stats
        sent = (stats.messages_sent, stats.bytes_sent)
        started = time.perf_counter()
        stream = network.stream(query, **options)
        # Time every row's arrival at the proxy.  ``on_result`` refuses
        # ORDER BY / LIMIT statements, so chain the handle's callback.
        deliver = stream.handle.result_callback

        def on_row(tup, _deliver=deliver) -> None:
            arrivals.append(network.now)
            _deliver(tup)

        stream.handle.result_callback = on_row
        result = stream.result()
        wall = time.perf_counter() - started
        submitted = result.submitted_at
        finished = result.finished_at if result.finished_at is not None else network.now
        self.records.append(
            OpRecord(
                kind=self.kind_for(index, statement),
                wall_s=wall,
                answer_s=finished - submitted,
                first_row_s=result.first_result_latency,
                last_row_s=(max(arrivals) - submitted) if arrivals else None,
                rows=result.rows(),
                completed=result.completed,
                coverage=result.coverage,
                extra={
                    "statement": position,
                    "timeout": timeout,
                    "messages": stats.messages_sent - sent[0],
                    "bytes": stats.bytes_sent - sent[1],
                },
            )
        )

    def check(self) -> None:
        for record in self.records:
            statement = self._rotation[record.extra["statement"]]
            verdict = statement.check(record.rows)
            if verdict == OK and not record.completed:
                verdict = INCOMPLETE
            if verdict == OK and record.coverage < 1.0:
                verdict = VERDICT_UNCOVERED
            record.verdict = verdict


# -- join --------------------------------------------------------------------- #
FACT_COLUMNS = (
    "f_id", "cust_id", "prod_id", "region", "channel", "status",
    "amount", "qty", "price_cents", "ts", "note", "flag",
)
CUST_COLUMNS = ("c_key", "cust_id", "cust_name", "segment")
PROD_COLUMNS = ("p_key", "prod_id", "prod_name", "category")
REGIONS = [f"r{i}" for i in range(8)]
CHANNELS = ["web", "store", "phone"]
STATUSES = ["open", "closed", "void", "hold"]
SEGMENTS = ["gold", "silver", "bronze"]
CATEGORIES = ["tools", "toys", "books", "food"]


def make_join_tables(rng: random.Random, facts: int, customers: int, products: int) -> Dict[str, List[Dict[str, Any]]]:
    """A 12-column fact table and two dimension tables, seeded.

    The categorical columns the statements filter on are assigned
    round-robin and every fact matches exactly one row of each dimension,
    so answer sizes are the same for every seed; the seed moves keys,
    values and therefore placement."""
    fact = [
        {
            "f_id": i,
            "cust_id": rng.randrange(customers),
            "prod_id": rng.randrange(products),
            "region": REGIONS[i % len(REGIONS)],
            "channel": CHANNELS[i % len(CHANNELS)],
            "status": STATUSES[(i // len(REGIONS)) % len(STATUSES)],
            "amount": rng.randrange(1, 5000),
            "qty": rng.randrange(1, 20),
            "price_cents": rng.randrange(100, 100_000),
            "ts": rng.randrange(1_000_000),
            "note": f"order-{rng.randrange(10**6):06d}",
            "flag": i % 2,
        }
        for i in range(facts)
    ]
    cust = [
        {"c_key": f"c{i}", "cust_id": i, "cust_name": f"customer-{i}", "segment": SEGMENTS[i % len(SEGMENTS)]}
        for i in range(customers)
    ]
    prod = [
        {"p_key": f"p{i}", "prod_id": i, "prod_name": f"product-{i}", "category": CATEGORIES[i % len(CATEGORIES)]}
        for i in range(products)
    ]
    return {"fact": fact, "cust": cust, "prod": prod}


class JoinTablesMixin:
    """Loads the fact/dimension tables into the reference and the DHT.

    Dimensions are partitioned on a surrogate key, not the join column,
    so every join is a rehash (symmetric hash join through the DHT)."""

    facts = 640
    customers = 64
    products = 48

    def load_join_reference(self) -> None:
        self.tables = make_join_tables(self.rng, self.facts, self.customers, self.products)
        for name, columns in (("fact", FACT_COLUMNS), ("cust", CUST_COLUMNS), ("prod", PROD_COLUMNS)):
            self.reference.create(name, columns)
            self.reference.insert(name, self.tables[name])

    def publish_join_tables(self, network) -> None:
        from repro.qp.tuples import Tuple

        for name, key in (("fact", "f_id"), ("cust", "c_key"), ("prod", "p_key")):
            network.create_table(name, partitioning=[key], lifetime=LONG_LIFETIME)
            network.publish(name, [Tuple.make(name, **row) for row in self.tables[name]])

    def join_statement(self, kind: str, columns: Sequence[str], joins: Sequence[str], where: str) -> Statement:
        """``joins`` name dimension tables; each joins the fact table on
        its id column."""
        pier_joins = " ".join(
            f"JOIN {table} ON {_join_column(table)} = {_join_column(table)}" for table in joins
        )
        ref_joins = " ".join(
            f"JOIN {table} ON fact.{_join_column(table)} = {table}.{_join_column(table)}" for table in joins
        )
        select = ", ".join(columns)
        expected = self.reference.rows(f"SELECT {select} FROM fact {ref_joins} WHERE {where}")
        return Statement(
            kind=kind,
            sql=f"SELECT {select} FROM fact {pier_joins} WHERE {where} TIMEOUT {{timeout}}",
            check=lambda rows, _c=tuple(columns), _e=expected: check_rows(rows, _c, _e),
        )


def _join_column(table: str) -> str:
    return {"cust": "cust_id", "prod": "prod_id"}[table]


class JoinWorkload(JoinTablesMixin, OneShotWorkload):
    """64 simulated nodes, exchange batching 8, 2- and 3-way joins."""

    name = "join"
    nodes = 64
    episode_steps = 25  # five rotations
    wall_group = 5  # the rotation
    timeout_range = (9.5, 10.5)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.load_join_reference()
        pick = random.Random(seed ^ 0x5EED)
        self._params = {
            "regions": pick.sample(REGIONS, 3),
            "channel": pick.choice(CHANNELS),
            "status": pick.choice(STATUSES),
            "segment": pick.choice(SEGMENTS),
            "category": pick.choice(CATEGORIES),
        }

    def build(self):
        from repro import PIERNetwork

        network = PIERNetwork(self.nodes, seed=self.seed, exchange_batch_size=8)
        self.publish_join_tables(network)
        network.run(3.0)
        return network

    def statements(self) -> List[Statement]:
        p = self._params
        return [
            self.join_statement(
                "join2_cust", ("f_id", "amount", "cust_name"), ("cust",),
                f"region = '{p['regions'][0]}'",
            ),
            self.join_statement(
                "join2_prod", ("f_id", "qty", "prod_name", "category"), ("prod",),
                f"channel = '{p['channel']}' AND flag = 1",
            ),
            self.join_statement(
                "join3", ("f_id", "note", "cust_name", "prod_name"), ("cust", "prod"),
                f"status = '{p['status']}' AND region = '{p['regions'][1]}'",
            ),
            self.join_statement(
                "join2_segment", ("f_id", "price_cents", "segment"), ("cust",),
                f"segment = '{p['segment']}' AND region = '{p['regions'][2]}'",
            ),
            self.join_statement(
                "join3_category", ("f_id", "ts", "segment", "category"), ("cust", "prod"),
                f"category = '{p['category']}' AND channel = '{p['channel']}'",
            ),
        ]


# -- aggregate ---------------------------------------------------------------- #
FIREWALL_COLUMNS = ("source_ip", "destination_port", "protocol", "action", "node", "timestamp")


def aggregate_statements(reference: Reference, top_k: int = 10) -> List[Statement]:
    """Hierarchical GROUP BY statements over the firewall log: top-k
    COUNT, COUNT+SUM, and a filtered COUNT."""
    topk = reference.rows(
        "SELECT source_ip, COUNT(*) FROM firewall_events GROUP BY source_ip"
    )
    sums = reference.rows(
        "SELECT protocol, COUNT(*), SUM(destination_port) FROM firewall_events GROUP BY protocol"
    )
    udp = reference.rows(
        "SELECT destination_port, COUNT(*) FROM firewall_events WHERE protocol = 'udp' "
        "GROUP BY destination_port"
    )
    hierarchical = {"aggregation_strategy": "hierarchical"}
    return [
        Statement(
            "topk_sources",
            "SELECT source_ip, COUNT(*) AS n FROM firewall_events GROUP BY source_ip "
            f"ORDER BY n DESC LIMIT {top_k} TIMEOUT {{timeout}}",
            lambda rows: check_groups(rows, ("source_ip",), ("n",), topk, top_k=top_k),
            hierarchical,
        ),
        Statement(
            "sum_by_protocol",
            "SELECT protocol, COUNT(*) AS n, SUM(destination_port) AS s FROM firewall_events "
            "GROUP BY protocol TIMEOUT {timeout}",
            lambda rows: check_groups(rows, ("protocol",), ("n", "s"), sums),
            hierarchical,
        ),
        Statement(
            "udp_ports",
            "SELECT destination_port, COUNT(*) AS n FROM firewall_events "
            "WHERE protocol = 'udp' GROUP BY destination_port TIMEOUT {timeout}",
            lambda rows: check_groups(rows, ("destination_port",), ("n",), udp),
            hierarchical,
        ),
    ]


class FirewallMixin:
    events_per_node = 40

    def load_firewall(self, nodes: int) -> None:
        from repro.workloads.firewall import FirewallWorkload

        generator = FirewallWorkload(nodes, events_per_node=self.events_per_node, seed=self.seed)
        self.firewall_rows = generator.events_by_node()
        self.reference.create("firewall_events", FIREWALL_COLUMNS)
        for rows in self.firewall_rows:
            self.reference.insert("firewall_events", (tup.as_mapping() for tup in rows))

    def register_firewall(self, network) -> None:
        network.create_table("firewall_events", source="local")
        for address, rows in enumerate(self.firewall_rows):
            network.register_local_table(address, "firewall_events", rows)


class AggregateWorkload(FirewallMixin, OneShotWorkload):
    """64 simulated nodes, node-local Zipf firewall logs; each query runs
    paper-pure, ``resilience=True`` or under ``IntegrityPolicy.enabled()``
    in turn, so each mode gets a third of the loop."""

    name = "aggregate"
    nodes = 64
    episode_steps = 36
    wall_group = 3  # one query per mode
    timeout_range = (9.5, 10.5)
    MODES = ("pure", "resilient", "verified")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.load_firewall(self.nodes)

    def build(self):
        from repro import PIERNetwork

        network = PIERNetwork(self.nodes, seed=self.seed)
        self.register_firewall(network)
        network.run(1.0)
        return network

    def statements(self) -> List[Statement]:
        return aggregate_statements(self.reference)

    def mode_for(self, index: int) -> str:
        # Modes rotate fastest and statements next, so every statement
        # runs under every mode within nine operations.
        return self.MODES[index % len(self.MODES)]

    def statement_for(self, index: int) -> int:
        return (index // len(self.MODES)) % len(self._rotation)

    def kind_for(self, index: int, statement: Statement) -> str:
        return f"{statement.kind}.{self.mode_for(index)}"

    def options_for(self, index: int) -> Dict[str, Any]:
        return mode_options(self.mode_for(index))


def mode_options(mode: str) -> Dict[str, Any]:
    """Query options of an aggregation mode: paper-pure, resilient or
    verified."""
    from repro.qp.integrity import IntegrityPolicy

    if mode == "resilient":
        return {"resilience": True}
    if mode == "verified":
        return {"integrity": IntegrityPolicy.enabled()}
    return {}


# -- physical ----------------------------------------------------------------- #
class PhysicalWorkload(JoinTablesMixin, FirewallMixin, OneShotWorkload):
    """8 nodes on loopback UDP; alternates a rehash join and a
    hierarchical aggregate, the aggregate running paper-pure, resilient or
    verified in turn.  Answer times are wall seconds."""

    name = "physical"
    simulated = False
    nodes = 8
    facts = 160
    customers = 16
    products = 12
    events_per_node = 30
    timeout_range = (0.15, 0.15)
    wall_group = 6  # join and aggregate, once per mode
    # One rotation per deployment: each set-up binds new ports and so
    # places the data anew, and averaging over several placements steadies
    # the message and byte counts.
    episode_steps = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.load_join_reference()
        self.load_firewall(self.nodes)
        pick = random.Random(seed ^ 0x5EED)
        self._region = pick.choice(REGIONS)

    def build(self):
        from repro import PIERNetwork

        network = PIERNetwork(self.nodes, seed=self.seed, mode="physical")
        self.publish_join_tables(network)
        self.register_firewall(network)
        network.run(0.3)
        return network

    def mode_for(self, index: int) -> str:
        return AggregateWorkload.MODES[(index // 2) % len(AggregateWorkload.MODES)]

    def kind_for(self, index: int, statement: Statement) -> str:
        return f"{statement.kind}.{self.mode_for(index)}" if index % 2 else statement.kind

    def options_for(self, index: int) -> Dict[str, Any]:
        return mode_options(self.mode_for(index)) if index % 2 else {}

    def statements(self) -> List[Statement]:
        join = self.join_statement(
            "join2_cust", ("f_id", "amount", "cust_name"), ("cust",), f"region = '{self._region}'"
        )
        aggregate = aggregate_statements(self.reference)[1]
        aggregate.sql = None
        aggregate.options = {}
        aggregate.plan = self._lan_aggregate
        return [join, aggregate]

    @staticmethod
    def _lan_aggregate(timeout: float):
        """The ``sum_by_protocol`` statement as a hierarchical plan whose
        per-hop waits suit a loopback deployment: the SQL planner's
        defaults (2 s local wait, 1 s hold per hop) are sized for the
        simulated wide-area network and outlast a sub-second TIMEOUT."""
        from repro.qp.plans import hierarchical_aggregation_plan

        return hierarchical_aggregation_plan(
            "firewall_events",
            group_columns=["protocol"],
            aggregates=[("count", None, "n"), ("sum", "destination_port", "s")],
            timeout=timeout,
            local_wait=0.02,
            hold=0.02,
        )


# ----------------------------------------------------------------------------- #
# Standing windowed queries over a live feed
# ----------------------------------------------------------------------------- #
FLOW_COLUMNS = ("t", "node", "src", "dst_port", "proto", "bytes")
SOURCES = [f"10.1.{i // 8}.{i % 8 + 1}" for i in range(24)]
PORTS = [22, 53, 80, 123, 443, 8080]
PROTOS = ["tcp", "udp", "icmp"]


@dataclass
class Subscription:
    kind: str
    sql: str
    keys: Sequence[str]
    values: Sequence[str]
    proxy: int
    epoch_grace: float
    handle: Any = None


class StandingWorkload(Workload):
    """Simulated continuous monitoring: every node appends flow rows to
    its local log each virtual second (the writes) while standing windowed
    GROUP BY queries read them: one tumbling window with a single
    subscriber, one tumbling window shared by several identical
    subscribers, and one sliding window.  An operation is a delivered
    window epoch."""

    name = "standing"
    nodes = 32
    rows_per_node = 2
    shared_subscribers = 6
    episode_steps = 60  # twelve slides, about 90 epochs
    # Client-side epoch grace: each subscriber picks its own, drawn from
    # this range around the program's 1.0 s default.
    grace_range = (1.0, 1.2)
    settle = 3.0
    SLIDE_STEPS = 5  # virtual seconds per slide of every subscription

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.reference.create("flows", FLOW_COLUMNS)

    def build(self):
        from repro import PIERNetwork

        network = PIERNetwork(self.nodes, seed=self.seed)
        network.create_table("flows", source="local")
        for address in range(self.nodes):
            network.register_local_table(address, "flows", [])
        self.subscriptions = self._subscribe(network)
        network.run(self.settle)
        # Feed rows at k + 0.5 virtual seconds, clear of every pane
        # boundary (multiples of the 5 s slide), so the reference can
        # window rows by their append time without rounding ambiguity.
        now = network.now
        network.run(int(now) + 1.5 - now)
        self.feed_started = network.now
        self._period_wall = 0.0
        self._delivered_now: List[OpRecord] = []
        self._feed_rng = random.Random(self.seed * 31 + 7)
        return network

    def setup(self) -> None:
        super().setup()
        # Reference rows belong to the live deployment only.
        self.reference.db.execute("DELETE FROM flows")

    def _subscribe(self, network) -> List[Subscription]:
        grace = random.Random(self.seed * 131 + 3)
        low, high = self.grace_range
        specs = [
            Subscription(
                "tumbling_single",
                "SELECT proto, COUNT(*) AS n, SUM(bytes) AS b FROM flows "
                f"WINDOW 5 LIFETIME {LONG_LIFETIME:.0f} GROUP BY proto",
                ("proto",), ("n", "b"), proxy=0, epoch_grace=round(grace.uniform(low, high), 3),
            )
        ]
        for index in range(self.shared_subscribers):
            specs.append(
                Subscription(
                    "tumbling_shared",
                    "SELECT dst_port, COUNT(*) AS n FROM flows "
                    f"WINDOW 5 LIFETIME {LONG_LIFETIME:.0f} GROUP BY dst_port",
                    ("dst_port",), ("n",),
                    proxy=(index * 5 + 1) % self.nodes,
                    epoch_grace=round(grace.uniform(low, high), 3),
                )
            )
        specs.append(
            Subscription(
                "sliding",
                "SELECT src, COUNT(*) AS n, SUM(bytes) AS b FROM flows "
                f"WINDOW 10 SLIDE 5 LIFETIME {LONG_LIFETIME:.0f} GROUP BY src",
                ("src",), ("n", "b"), proxy=self.nodes // 2,
                epoch_grace=round(grace.uniform(low, high), 3),
            )
        )
        for spec in specs:
            spec.handle = network.subscribe(spec.sql, proxy=spec.proxy, epoch_grace=spec.epoch_grace)
            spec.handle.on_epoch(lambda epoch, _spec=spec: self._on_epoch(_spec, epoch))
        return specs

    def _on_epoch(self, spec: Subscription, epoch) -> None:
        now = self.network.now if self.network is not None else epoch.watermark
        lag = now - epoch.end
        self._delivered_now.append(
            OpRecord(
                kind=spec.kind,
                wall_s=0.0,
                answer_s=lag,
                first_row_s=lag,  # an epoch reaches its subscriber whole
                rows=epoch.rows(),
                extra={"subscription": id(spec), "index": epoch.index, "start": epoch.start, "end": epoch.end},
            )
        )

    def step(self, index: int) -> None:
        network = self.network
        rng = self._feed_rng
        now = network.now
        for address in range(self.nodes):
            rows = []
            for _ in range(self.rows_per_node):
                rows.append(
                    {
                        "t": now,
                        "node": address,
                        "src": rng.choice(SOURCES),
                        "dst_port": rng.choice(PORTS),
                        "proto": rng.choice(PROTOS),
                        "bytes": rng.randrange(40, 1500),
                    }
                )
            self.reference.insert("flows", rows)
            self._append(network, address, rows)
        started = time.perf_counter()
        network.run(1.0)
        self._period_wall += time.perf_counter() - started
        if (index + 1) % self.SLIDE_STEPS == 0:
            # One slide period of feed and delivery: its epochs share the
            # wall time the program spent running it.
            delivered, self._delivered_now = self._delivered_now, []
            for record in delivered:
                record.wall_s = self._period_wall / len(delivered)
            self.records.extend(delivered)
            self._period_wall = 0.0

    @staticmethod
    def _append(network, address: int, rows: List[Dict[str, Any]]) -> None:
        from repro.qp.tuples import Tuple

        network.append_local_rows(
            address, "flows", [Tuple.make("flows", **{k: v for k, v in row.items() if k != "t"}) for row in rows]
        )

    def check(self) -> None:
        if self._delivered_now:
            # Epochs of the last, partial slide period.
            for record in self._delivered_now:
                record.wall_s = self._period_wall / len(self._delivered_now)
            self.records.extend(self._delivered_now)
            self._delivered_now = []
        by_spec = {id(spec): spec for spec in self.subscriptions}
        seen: Dict[int, List[int]] = {key: [] for key in by_spec}
        for record in self.records:
            spec = by_spec[record.extra["subscription"]]
            seen[id(spec)].append(record.extra["index"])
            columns = ", ".join(spec.keys)
            aggregates = ", ".join(
                "COUNT(*)" if value == "n" else "SUM(bytes)" for value in spec.values
            )
            expected = self.reference.rows(
                f"SELECT {columns}, {aggregates} FROM flows WHERE t >= ? AND t < ? GROUP BY {columns}",
                (record.extra["start"], record.extra["end"]),
            )
            record.verdict = check_groups(record.rows, spec.keys, spec.values, expected)
        # A missing epoch: a window that holds fed rows, closed well before
        # the run ended, that its subscriber never received.
        end = self.network.now
        self.missing = 0
        slide = float(self.SLIDE_STEPS)
        # Epoch k ends at (k + 1) * slide; the first one holding fed rows
        # is the one whose end follows the feed's start.
        expected_indices = set(range(int(self.feed_started // slide), int((end - slide) // slide)))
        for key, indices in seen.items():
            got = set(indices)
            self.missing += len(expected_indices - got)
            if len(indices) != len(got):
                # the same epoch delivered twice
                for record in self.records:
                    if record.extra["subscription"] == key:
                        record.verdict = WRONG
                        break


WORKLOADS = {
    cls.name: cls for cls in (JoinWorkload, AggregateWorkload, StandingWorkload, PhysicalWorkload)
}
