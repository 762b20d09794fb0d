"""The traced run: per-layer self time and counts, from outside the program.

Wrappers around public entry points of each layer are patched in at run
time, in this process only, and removed afterwards.  Every wrapper pushes
a frame on one span stack; a layer's *self time* is its spans' duration
minus the time of the spans nested inside them, so the self times of all
layers plus the unattributed remainder add up to the traced wall time.
The remainder is the benchmark client's own code and the program code no
wrapper covers (scheduler-dispatched handlers outside the wrapped calls);
it is reported as ``trace.unattributed_s`` and never folded into a layer.

Counts come from the program's public counters (``environment.stats``,
``dht_stats()``, ``codec.FALLBACKS``, ``PhysicalEnvironment.retransmits``
and ``busy_seconds``, ``executor.installed_graphs()``, proxy integrity
counters) read before and after the traced phase.

The traced run first measures an untraced phase for half the run, then
replays its first episode's operations once more on a fresh deployment
with the wrappers in place; the traced wall time over the median untraced
episode's is the tracing overhead.  Wall times here are time inside the
workload's steps.  The program's own causal tracer stays off throughout.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

MESSAGE_KINDS = (
    "lookup", "lookup_response", "put", "put_batch", "send", "get_request",
    "get_response", "ack", "ping", "renew", "direct", "hello", "other",
)
# Namespace classes: query-scoped namespaces lose their ``q000123:``
# prefix and trailing digits; the benchmark's own tables fold into "table".
NAMESPACE_CLASSES = (
    "table", "join_rehash", "agg_rehash", "__results__", "__query_dissemination__",
    "__hierarchical_aggregate__", "__integrity__", "__dtree_advertise__",
    "__dtree_children__", "__dtree_broadcast__", "other", "none",
)
OVERLAY_FUNCTIONS = (
    "put", "put_batch", "get", "send", "lookup", "handle_udp",
    "local_scan", "direct_message", "renew",
)
OPERATOR_MODULES = ("access", "relational", "joins", "exchange", "groupby")
BENCHMARK_TABLES = {"fact", "cust", "prod", "firewall_events", "flows"}


def per_layer_metrics() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names: List[Tuple[str, str]] = [
        ("runtime.scheduler.events", "count"),
        ("runtime.scheduler.self_s", "s"),
        ("runtime.scheduler.peak_live_events", "count"),
        ("runtime.simulation.transmit.calls", "count"),
        ("runtime.simulation.transmit.self_s", "s"),
    ]
    names += [(f"runtime.simulation.msgs.{kind}", "count") for kind in MESSAGE_KINDS]
    names += [(f"runtime.simulation.bytes.{kind}", "B") for kind in MESSAGE_KINDS]
    names += [
        ("runtime.sizing.calls", "count"),
        ("runtime.sizing.self_s", "s"),
        ("runtime.sizing.estimate_over_codec", "ratio"),
        ("runtime.codec.encode.calls", "count"),
        ("runtime.codec.encode.self_s", "s"),
        ("runtime.codec.decode.calls", "count"),
        ("runtime.codec.decode.self_s", "s"),
        ("runtime.codec.fallbacks", "count"),
        ("runtime.physical.loop.self_s", "s"),
        ("runtime.physical.busy_s", "s"),
        ("runtime.physical.idle_s", "s"),
        ("runtime.physical.retransmits", "count"),
        ("runtime.physical.duplicates_dropped", "count"),
    ]
    for function in OVERLAY_FUNCTIONS:
        names += [(f"overlay.wrapper.{function}.calls", "count"), (f"overlay.wrapper.{function}.self_s", "s")]
    names += [
        ("overlay.wrapper.lookup_hops_mean", "hops"),
        ("overlay.wrapper.objects_per_put_batch", "count"),
        ("overlay.router.route_choice.calls", "count"),
        ("overlay.router.route_choice.self_s", "s"),
        ("overlay.distribution_tree.broadcast.calls", "count"),
        ("overlay.object_manager.objects_end", "count"),
    ]
    names += [(f"overlay.ns.{cls}.bytes", "B") for cls in NAMESPACE_CLASSES]
    names += [
        ("sql.plan_sql.calls", "count"),
        ("sql.plan_sql.self_s", "s"),
        ("qp.proxy.completion_slack_s.p50", "s"),
        ("qp.proxy.submit.calls", "count"),
        ("qp.proxy.submit.self_s", "s"),
        ("qp.dissemination.disseminate.calls", "count"),
        ("qp.dissemination.disseminate.self_s", "s"),
        ("qp.executor.install.calls", "count"),
        ("qp.executor.install.self_s", "s"),
        ("qp.executor.finish.self_s", "s"),
        ("qp.executor.retained_graphs_end", "count"),
    ]
    for module in OPERATOR_MODULES:
        names += [
            (f"qp.operators.{module}.receive.calls", "count"),
            (f"qp.operators.{module}.receive.self_s", "s"),
            (f"qp.operators.{module}.flush.self_s", "s"),
        ]
    names += [
        ("qp.hierarchical.receive.calls", "count"),
        ("qp.hierarchical.receive.self_s", "s"),
        ("qp.hierarchical.flush.self_s", "s"),
        ("qp.integrity.verifications", "count"),
        ("qp.integrity.failures", "count"),
        ("qp.integrity.repairs", "count"),
        ("cq.epochs_delivered", "count"),
        ("cq.shared_plans", "count"),
        ("cq.pane_bytes", "B"),
        ("trace.wall_s", "s"),
        ("trace.overhead_x", "ratio"),
        ("trace.unattributed_s", "s"),
        ("trace.unattributed.dispatch_s", "s"),
        ("trace.unattributed.client_s", "s"),
        ("trace.accounted_share", "ratio"),
    ]
    return dict(names)


class SpanStack:
    """Self-time accounting over nested wrapped calls."""

    def __init__(self) -> None:
        self.frames: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, owner: Any, attribute: str, name: str, hook: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``hook(args, kwargs, result)`` runs after the call, inside its span."""
        had_own = attribute in vars(owner)
        original = getattr(owner, attribute)
        frames, self_s, total_s, calls = self.frames, self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                frames.pop()
                self_s[name] += elapsed - frame[0]
                total_s[name] += elapsed
                calls[name] += 1
                if frames:
                    frames[-1][0] += elapsed

        wrapper.__wrapped__ = original
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original, had_own))

    def restore(self) -> None:
        for owner, attribute, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()


def namespace_class(namespace: Any) -> str:
    if not isinstance(namespace, str):
        return "none"
    name = namespace.split(":", 1)[1] if re.match(r"^q\d+:", namespace) else namespace
    name = name.split(":", 1)[0]  # "__dtree_broadcast__:<tree root>"
    if name in BENCHMARK_TABLES:
        return "table"
    name = re.sub(r"(r\d+|_\d+)$", "", name)  # per-join and per-replica suffixes
    return name if name in NAMESPACE_CLASSES else "other"


class TransmitLedger:
    """Messages and bytes by overlay message kind and namespace class.

    The size of each message is the one the simulator charges (the
    patched ``estimate_message_size`` records it); a sample of payloads
    is kept to compare that charge with the binary codec's length after
    the traced phase."""

    SAMPLE_EVERY = 16
    SAMPLE_LIMIT = 4000

    def __init__(self) -> None:
        self.msgs: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self.ns_bytes: Dict[str, int] = defaultdict(int)
        self.last_size = 0
        self.count = 0
        self.samples: List[Tuple[Any, int]] = []

    def sized(self, _args, _kwargs, size) -> None:
        self.last_size = size

    def sent(self, args, kwargs, _result) -> None:
        payload = kwargs["payload"] if "payload" in kwargs else args[4]
        size = self.last_size
        kind = payload.get("kind") if isinstance(payload, dict) else None
        key = kind if kind in MESSAGE_KINDS else "other"
        self.msgs[key] += 1
        self.bytes[key] += size
        namespace = payload.get("namespace") if isinstance(payload, dict) else None
        self.ns_bytes[namespace_class(namespace)] += size
        self.count += 1
        if self.count % self.SAMPLE_EVERY == 0 and len(self.samples) < self.SAMPLE_LIMIT:
            self.samples.append((payload, size))

    def estimate_over_codec(self) -> float:
        from repro.runtime import codec

        charged = encoded = 0
        for payload, size in self.samples:
            try:
                length = len(codec.encode(payload))
            except codec.CodecError:
                continue
            charged += size
            encoded += length
        return charged / encoded if encoded else 0.0


def install_wrappers(spans: SpanStack, ledger: TransmitLedger) -> None:
    from repro.api import PIERNetwork
    from repro.overlay.distribution_tree import DistributionTree
    from repro.overlay.router import ChordRouter
    from repro.overlay.wrapper import OverlayNode
    from repro.qp import hierarchical
    from repro.qp.dissemination import QueryDisseminator
    from repro.qp.executor import QueryExecutor
    from repro.qp.operators import access, exchange, groupby, joins, relational
    from repro.qp.operators.base import PhysicalOperator
    from repro.qp.proxy import ProxyService
    from repro.runtime import codec, simulation
    from repro.runtime.events import Event, NetworkEvent
    from repro.runtime.physical import PhysicalEnvironment
    from repro.runtime.scheduler import MainScheduler

    spans.wrap(MainScheduler, "run", "runtime.scheduler")
    spans.wrap(Event, "dispatch", "dispatch")
    spans.wrap(NetworkEvent, "dispatch", "dispatch")
    spans.wrap(PhysicalEnvironment, "run", "runtime.physical.loop")
    spans.wrap(simulation.SimulationEnvironment, "transmit", "runtime.simulation.transmit", ledger.sent)
    spans.wrap(simulation, "estimate_message_size", "runtime.sizing", ledger.sized)
    spans.wrap(codec, "encode", "runtime.codec.encode")
    spans.wrap(codec, "decode", "runtime.codec.decode")
    for function in OVERLAY_FUNCTIONS:
        spans.wrap(OverlayNode, function, f"overlay.wrapper.{function}")
    spans.wrap(ChordRouter, "route_choice", "overlay.router.route_choice")
    spans.wrap(DistributionTree, "broadcast", "overlay.distribution_tree.broadcast")
    spans.wrap(PIERNetwork, "plan_sql", "sql.plan_sql")
    spans.wrap(ProxyService, "submit", "qp.proxy.submit")
    spans.wrap(QueryDisseminator, "disseminate", "qp.dissemination.disseminate")
    spans.wrap(QueryExecutor, "install", "qp.executor.install")
    spans.wrap(QueryExecutor, "finish", "qp.executor.finish")
    # Hierarchical operators first: they inherit from groupby's base, and
    # get their own attribute so their time is not charged to groupby.
    modules = [("qp.hierarchical", hierarchical)] + [
        (f"qp.operators.{module.__name__.rsplit('.', 1)[1]}", module)
        for module in (access, relational, joins, exchange, groupby)
    ]
    for prefix, module in modules:
        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, PhysicalOperator)) or cls.__module__ != module.__name__:
                continue
            for method, label in (("on_receive", "receive"), ("flush", "flush")):
                own = method in vars(cls)
                if own or prefix == "qp.hierarchical":
                    spans.wrap(cls, method, f"{prefix}.{label}")


class Counters:
    """Public counters of one deployment, read before and after a phase."""

    def __init__(self, network) -> None:
        self.network = network
        self.values = self.read()

    def read(self) -> Dict[str, float]:
        from repro.runtime import codec

        network = self.network
        environment = network.environment
        dht = network.dht_stats()
        proxies = [node.proxy for node in network.nodes]
        return {
            "events": environment.scheduler.events_dispatched,
            "hops": sum(stats.lookup_hops_total for stats in dht),
            "lookups": sum(stats.lookups_completed for stats in dht),
            "batch_puts": sum(stats.batch_puts for stats in dht),
            "batched_objects": sum(stats.batched_objects for stats in dht),
            "fallbacks": codec.FALLBACKS.total(),
            "busy": getattr(environment, "busy_seconds", 0.0),
            "retransmits": getattr(environment, "retransmits", 0),
            "duplicates": getattr(environment, "duplicates_dropped", 0),
            "verifications": sum(proxy.integrity_verifications for proxy in proxies),
            "failures": sum(proxy.integrity_failures for proxy in proxies),
            "repairs": sum(proxy.integrity_repairs for proxy in proxies),
        }

    def delta(self) -> Dict[str, float]:
        now = self.read()
        return {key: now[key] - self.values[key] for key in now}


def traced_run(workload, seconds: float, setup_times: Dict[str, List[float]]) -> Dict[str, Any]:
    """Untraced half, then the same operations traced; per-layer report."""
    from pierbench.run import Phase, summarize

    untraced = Phase(workload, seconds / 2.0).run()
    steps = untraced.steps // untraced.episodes
    workload.setup()
    network = workload.network
    counters = Counters(network)
    spans, ledger = SpanStack(), TransmitLedger()
    install_wrappers(spans, ledger)
    root = [0.0]
    spans.frames.append(root)
    try:
        traced = Phase(workload, seconds, max_steps=steps, max_episodes=1).run()
    finally:
        spans.frames.pop()
        spans.restore()
    wall = traced.op_wall
    delta = counters.delta()
    summary = summarize(workload, traced, setup_times)
    metrics = dict.fromkeys(per_layer_metrics(), 0.0)
    # Span names are metric prefixes; the dispatch span is unattributed.
    for name, value in spans.self_s.items():
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] = value
    for name, value in spans.calls.items():
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = value
    for kind in MESSAGE_KINDS:
        metrics[f"runtime.simulation.msgs.{kind}"] = ledger.msgs.get(kind, 0)
        metrics[f"runtime.simulation.bytes.{kind}"] = ledger.bytes.get(kind, 0)
    for cls in NAMESPACE_CLASSES:
        metrics[f"overlay.ns.{cls}.bytes"] = ledger.ns_bytes.get(cls, 0)
    in_loop = spans.total_s.get("runtime.physical.loop", 0.0)
    metrics.update(
        {
            "runtime.scheduler.events": delta["events"],
            "runtime.scheduler.peak_live_events": network.environment.scheduler.peak_live_events,
            "runtime.sizing.estimate_over_codec": ledger.estimate_over_codec(),
            "runtime.codec.fallbacks": delta["fallbacks"],
            "runtime.physical.busy_s": delta["busy"],
            "runtime.physical.idle_s": max(in_loop - delta["busy"], 0.0) if in_loop else 0.0,
            "runtime.physical.retransmits": delta["retransmits"],
            "runtime.physical.duplicates_dropped": delta["duplicates"],
            "overlay.wrapper.lookup_hops_mean": delta["hops"] / delta["lookups"] if delta["lookups"] else 0.0,
            "overlay.wrapper.objects_per_put_batch": (
                delta["batched_objects"] / delta["batch_puts"] if delta["batch_puts"] else 0.0
            ),
            "overlay.object_manager.objects_end": sum(
                node.overlay.object_manager.count() for node in network.nodes
            ),
            "qp.executor.retained_graphs_end": sum(
                len(node.executor.installed_graphs()) for node in network.nodes
            ),
            "qp.integrity.verifications": delta["verifications"],
            "qp.integrity.failures": delta["failures"],
            "qp.integrity.repairs": delta["repairs"],
            "cq.shared_plans": len(network.sharing.active_plans),
            "cq.pane_bytes": ledger.ns_bytes.get("__dtree_broadcast__", 0) if workload.name == "standing" else 0,
            "cq.epochs_delivered": len(workload.records) if workload.name == "standing" else 0,
        }
    )
    slack = summary["extras"].get("completion_slack_s.p50")
    metrics["qp.proxy.completion_slack_s.p50"] = slack if slack is not None else 0.0
    dispatch = spans.self_s.get("dispatch", 0.0)
    # Client time is the traced wall time outside every top-level span;
    # accounted_share departs from 1 only if the span stack lost or
    # double-counted time (self times must add up to the top-level spans).
    client = wall - root[0]
    attributed = sum(value for name, value in spans.self_s.items() if name != "dispatch")
    metrics.update(
        {
            "trace.wall_s": wall,
            # every untraced episode ran the same `steps` operations
            "trace.overhead_x": wall / statistics.median(untraced.episode_walls),
            "trace.unattributed.dispatch_s": dispatch,
            "trace.unattributed.client_s": client,
            "trace.unattributed_s": dispatch + client,
            "trace.accounted_share": (attributed + dispatch + client) / wall if wall else 0.0,
        }
    )
    return {
        "metrics": metrics,
        "units": per_layer_metrics(),
        "extras": {
            "steps": steps,
            "untraced_episode_wall_s": statistics.median(untraced.episode_walls),
            "attributed_share": attributed / wall if wall else 0.0,
            "sampled_payloads": len(ledger.samples),
            "failed_frac": summary["extras"]["failed_frac"],
            "verdicts": summary["extras"]["verdicts"],
        },
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "correct": summary["correct"],
    }
