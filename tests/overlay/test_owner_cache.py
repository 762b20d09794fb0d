"""The wrapper's owner location cache: ranges learned from lookup
responses let put/get/renew skip the routed lookup, while the receiver's
ownership check, eviction on failed delivery and the always-routed public
lookup keep every operation landing at the true owner."""

from itertools import count

from repro.api import PIERNetwork
from repro.overlay.bamboo import BambooRouter
from repro.overlay.identifiers import IdentifierSpace
from repro.overlay.naming import ObjectName
from repro.overlay.router import BootstrapDirectory
from repro.overlay.wrapper import OverlayNode
from repro.qp.tuples import Tuple
from repro.runtime import codec
from repro.runtime.simulation import SimulationEnvironment
from repro.simnet import build_overlay

NS = "cache_test"


def _target(key):
    return ObjectName(NS, key, "").routing_identifier()


def _key_in(start, end):
    """The first key ``k<i>`` whose routing identifier lies in (start, end]."""
    return next(
        f"k{i}" for i in count() if IdentifierSpace.in_interval(_target(f"k{i}"), start, end)
    )


def _owner(nodes, key):
    return next(node for node in nodes if node.router.is_responsible(_target(key)))


def _routed(nodes):
    return sum(node.stats.messages_routed for node in nodes)


def _holders(nodes, key):
    return [node for node in nodes if node.object_manager.get(NS, key)]


def _remote_owner_and_origin(nodes):
    """A key, its owner, and an origin that does not own it."""
    owner = _owner(nodes, "warm")
    return "warm", owner, nodes[0] if owner is not nodes[0] else nodes[1]


def test_second_put_into_a_cached_range_sends_no_routed_message(small_overlay):
    nodes = small_overlay.nodes
    warm, owner, origin = _remote_owner_and_origin(nodes)
    origin.put(NS, warm, "s", "v0", lifetime=300)
    small_overlay.run(3.0)
    assert origin.stats.lookup_cache_hits == 0

    second = _key_in(*owner.router.owned_range())
    assert second != warm
    acks = []
    routed_before = _routed(nodes)
    origin.put(NS, second, "s", "v1", lifetime=300, callback=acks.append)
    small_overlay.run(3.0)
    assert acks == [True]
    assert _routed(nodes) == routed_before
    assert origin.stats.lookup_cache_hits == 1
    assert [node.address for node in _holders(nodes, second)] == [owner.address]


def test_get_and_renew_use_the_cache_too(small_overlay):
    nodes = small_overlay.nodes
    warm, owner, origin = _remote_owner_and_origin(nodes)
    origin.put(NS, warm, "s", "v0", lifetime=300)
    small_overlay.run(3.0)
    outcomes = {}
    routed_before = _routed(nodes)
    origin.get(NS, warm, lambda ns, key, objs: outcomes.setdefault("get", objs))
    origin.renew(NS, warm, "s", lifetime=300, callback=lambda ok: outcomes.setdefault("renew", ok))
    small_overlay.run(3.0)
    assert outcomes == {"get": ["v0"], "renew": True}
    assert _routed(nodes) == routed_before
    assert origin.stats.lookup_cache_hits == 2


def test_public_lookup_always_routes(small_overlay):
    nodes = small_overlay.nodes
    warm, owner, origin = _remote_owner_and_origin(nodes)
    origin.put(NS, warm, "s", "v0", lifetime=300)
    small_overlay.run(3.0)
    resolved = []
    routed_before = origin.stats.lookups_routed
    origin.lookup(_target(warm), lambda contact, hops: resolved.append((contact, hops)))
    small_overlay.run(3.0)
    assert [contact.identifier for contact, _ in resolved] == [owner.identifier]
    assert resolved[0][1] >= 1
    assert origin.stats.lookups_routed == routed_before + 1
    assert origin.stats.lookup_cache_hits == 0


def test_mean_lookup_hops_counts_routed_lookups_only(small_overlay):
    origin = small_overlay.node(0)
    remote = next(node for node in small_overlay.nodes if node is not origin)
    hops = []
    origin.lookup(origin.identifier, lambda contact, count: hops.append(count))
    origin.lookup(remote.identifier, lambda contact, count: hops.append(count))
    small_overlay.run(3.0)
    assert hops[0] == 0 and hops[1] >= 1
    assert origin.stats.lookups_completed == 2
    assert origin.stats.mean_lookup_hops == hops[1]


def test_new_node_splitting_a_cached_range_gets_the_forwarded_put():
    environment = SimulationEnvironment(17, seed=7)
    directory = BootstrapDirectory()
    nodes = [OverlayNode(environment.runtime(address), directory) for address in range(17)]
    members, newcomer = nodes[:16], nodes[16]
    for node in members:
        node.join()
    for node in members:
        node.router.refresh(directory.members())
    # The member whose range the newcomer will split, and an origin that
    # owns neither part of it.
    splitter = next(
        node
        for node in members
        if IdentifierSpace.in_interval(newcomer.identifier, *node.router.owned_range())
    )
    old_start = splitter.router.owned_range()[0]
    origin = next(node for node in members if node is not splitter)
    origin.put(NS, _key_in(newcomer.identifier, splitter.identifier), "s", "warm", lifetime=300)
    environment.run(3.0)

    # The newcomer joins; every member but the origin stabilizes, so the
    # origin still caches the splitter's old, wider range.
    newcomer.join()
    for node in members:
        if node is not origin:
            node.router.refresh(directory.members())
    key = _key_in(old_start, newcomer.identifier)
    acks = []
    origin.put(NS, key, "s", "moved", lifetime=300, callback=acks.append)
    environment.run(5.0)

    assert origin.stats.lookup_cache_hits == 1
    assert splitter.stats.owner_forwards == 1
    assert acks == [True]
    assert [node.address for node in _holders(nodes, key)] == [newcomer.address]


def test_dead_cached_owner_is_evicted_and_the_put_reaches_the_new_owner(small_overlay):
    nodes = small_overlay.nodes
    warm, owner, origin = _remote_owner_and_origin(nodes)
    origin.put(NS, warm, "s", "v0", lifetime=300)
    small_overlay.run(3.0)
    key = _key_in(*owner.router.owned_range())
    successor_id = owner.router.successors[0].identifier
    successor = next(node for node in nodes if node.identifier == successor_id)

    small_overlay.environment.fail_node(owner.address)
    acks = []
    origin.put(NS, key, "s", "kept", lifetime=300, callback=acks.append)
    small_overlay.run(12.0)

    assert origin.stats.lookup_cache_hits == 1
    assert origin.stats.lookup_cache_evictions == 1
    assert origin.router.is_suspected_dead(owner.identifier)
    assert acks == [True]
    live = [node for node in nodes if node is not owner]
    assert [node.address for node in _holders(live, key)] == [successor.address]
    assert [obj.value for obj in successor.object_manager.get(NS, key)] == ["kept"]


def test_membership_change_clears_the_cache(small_overlay):
    nodes = small_overlay.nodes
    warm, owner, origin = _remote_owner_and_origin(nodes)
    origin.put(NS, warm, "s", "v0", lifetime=300)
    small_overlay.run(3.0)
    bystander = next(node for node in nodes if node not in (origin, owner))
    origin.router.mark_dead(bystander.identifier)
    origin.put(NS, warm, "s2", "v1", lifetime=300)
    small_overlay.run(3.0)
    assert origin.stats.lookup_cache_hits == 0
    assert sorted(obj.value for obj in owner.object_manager.get(NS, warm)) == ["v0", "v1"]


def test_bamboo_stays_uncached_and_correct():
    deployment = build_overlay(16, router_factory=BambooRouter, seed=7)
    nodes = deployment.nodes
    for index in range(8):
        nodes[index % 3].put(NS, f"b{index}", "s", index, lifetime=300)
    deployment.run(3.0)
    for index in range(8):
        nodes[5].put(NS, f"b{index}", "t", index, lifetime=300)
    deployment.run(3.0)
    for index in range(8):
        holders = _holders(nodes, f"b{index}")
        assert len(holders) == 1
        assert holders[0].router.is_responsible(_target(f"b{index}"))
        stored = holders[0].object_manager.get(NS, f"b{index}")
        assert sorted(obj.name.suffix for obj in stored) == ["s", "t"]
    assert sum(node.stats.lookup_cache_hits for node in nodes) == 0


JOIN = "SELECT fid, name FROM fact JOIN dim ON k = k TIMEOUT 1"


def _join_answers(mode):
    network = PIERNetwork(4, seed=11, mode=mode)
    try:
        network.create_table("fact", partitioning=["fid"])
        network.create_table("dim", partitioning=["did"])
        network.publish("fact", [Tuple.make("fact", fid=i, k=i % 5) for i in range(20)])
        network.publish("dim", [Tuple.make("dim", did=i, k=i, name=f"n{i}") for i in range(5)])
        network.run(0.5)
        answers = [
            sorted((row["fid"], row["name"]) for row in network.query(JOIN).rows())
            for _ in range(2)
        ]
        hits = sum(node.overlay.stats.lookup_cache_hits for node in network.nodes)
        return answers, hits
    finally:
        network.close()


def test_physical_and_simulated_joins_agree_with_a_warm_cache():
    expected = sorted((i, f"n{i % 5}") for i in range(20))
    simulated, simulated_hits = _join_answers("simulated")
    codec.FALLBACKS.reset()
    physical, physical_hits = _join_answers("physical")
    assert simulated == physical == [expected, expected]
    assert simulated_hits > 0 and physical_hits > 0
    assert codec.FALLBACKS.total() == 0


def test_cache_counters_are_exported_and_hits_are_traced():
    network = PIERNetwork(8, seed=23)
    network.enable_tracing()
    network.create_table("events", partitioning=["src"])
    network.publish("events", [Tuple.make("events", src=f"s{i % 6}", v=i) for i in range(24)])
    network.run(2.0)
    sql = "SELECT src, COUNT(*) AS n FROM events GROUP BY src TIMEOUT 6"
    network.query(sql, include_explain=False)
    result = network.query(sql, include_explain=False)
    assert len(result) == 6

    metrics = network.metrics()
    hits = [metrics[f"dht.lookup_cache_hits{{node={i}}}"] for i in range(8)]
    assert sum(hits) == sum(node.overlay.stats.lookup_cache_hits for node in network.nodes) > 0
    assert metrics["dht.lookup_cache_evictions{node=0}"] == 0
    assert metrics["dht.owner_forwards{node=0}"] == 0
    cached = [
        span
        for span in network.tracer.spans_for(f"t-{result.query_id}")
        if span.name == "dht.lookup" and span.attrs.get("cached")
    ]
    assert cached and all(span.attrs["hops"] == 0 for span in cached)
