"""The simulator charges every message its physical datagram length.

There is one definition of message size: the binary codec's.  The
simulator charges each send ``codec.ENVELOPE_BYTES`` plus the payload's
exact encoded length (``codec.encoded_size``), so simulated byte counters
are the bytes the physical runtime would put on loopback sockets.  The
property test that ``encoded_size(v) == len(encode(v))`` for arbitrary
values lives with the codec tests; this module pins the simulator side:
memoized tuple lengths, batch pricing, unknown objects, and every send
of a seeded run.
"""

import pytest

from repro.api import PIERNetwork
from repro.qp.tuples import Tuple
from repro.runtime import codec
from repro.runtime.simulation import SimulationEnvironment, estimate_message_size

ENVELOPE = codec.ENVELOPE_BYTES


def datagram_length(payload):
    return len(codec.pack_datagram(codec.KIND_DATA, 0, 0, 0, payload))


@pytest.mark.parametrize(
    "payload, expected",
    [
        (None, ENVELOPE + 1),
        (7, ENVELOPE + 2),
        (3.5, ENVELOPE + 9),
        (True, ENVELOPE + 1),
        ("abc", ENVELOPE + 2 + 3),
        (b"abcd", ENVELOPE + 5 + 4),
        ([1, 2, 3], ENVELOPE + 5 + 3 * 2),
        ((1, "ab"), ENVELOPE + 5 + 2 + 4),
        ({"k": 1}, ENVELOPE + 5 + 3 + 2),
        ({1, 2}, ENVELOPE + 5 + 2 * 2),
    ],
)
def test_scalar_and_container_sizes_are_pinned(payload, expected):
    assert estimate_message_size(payload) == expected == datagram_length(payload)


def test_tuple_wire_size_is_memoized():
    tup = Tuple.make("t", a=1, b="xyz")
    assert tup._wire_size is None
    first = tup.wire_size()
    assert tup._wire_size == first
    assert tup.wire_size() == first == len(tup.to_bytes())


def test_put_batch_size_is_envelope_plus_cached_elements():
    tuples = [Tuple.make("t", k=i, v=f"val-{i}") for i in range(5)]

    def batch_message(entries):
        return {
            "kind": "put_batch",
            "namespace": "t",
            "key": 1,
            "entries": entries,
            "lifetime": 600.0,
            "request_id": None,
            "origin": 0,
        }

    message = batch_message([(f"{i:012x}", tup) for i, tup in enumerate(tuples)])
    assert estimate_message_size(message) == datagram_length(message)
    # The batch is priced off the elements' memoized sizes: each entry is
    # a 2-tuple header, a 12-byte short string, and the tuple itself.
    header_only = estimate_message_size(batch_message([]))
    per_element = [5 + (2 + 12) + tup.wire_size() for tup in tuples]
    assert estimate_message_size(message) == header_only + sum(per_element)


class _SlottedAck:
    __slots__ = ("request_id", "success")

    def __init__(self, request_id, success):
        self.request_id = request_id
        self.success = success


def test_slots_objects_are_charged_for_their_fields():
    codec.FALLBACKS.reset()
    ack = _SlottedAck(request_id=12, success=True)
    # Unknown objects are charged their pickle frame, as on the wire, and
    # that frame carries the object's fields.
    assert estimate_message_size(ack) == datagram_length(ack)
    envelope = {"kind": "direct", "value": ack}
    assert estimate_message_size(envelope) == datagram_length(envelope)
    assert estimate_message_size(_SlottedAck("x" * 500, True)) > estimate_message_size(ack) + 490
    codec.FALLBACKS.reset()


def test_every_simulated_send_is_charged_its_datagram_length(monkeypatch):
    """A seeded run covering a rehash join, a hierarchical GROUP BY and a
    windowed standing query: every message the simulator sends is charged
    exactly the length of the datagram the physical runtime would send."""
    charges = []
    original = SimulationEnvironment.transmit

    def recording_transmit(self, source, source_port, destination, payload, ack):
        # Measure at send time: routing envelopes are rewritten per hop.
        expected = datagram_length(payload)
        before = self.bytes_sent_by_node[source]
        original(self, source, source_port, destination, payload, ack)
        charges.append((self.bytes_sent_by_node[source] - before, expected))

    monkeypatch.setattr(SimulationEnvironment, "transmit", recording_transmit)
    codec.FALLBACKS.reset()

    network = PIERNetwork(8, seed=5)
    network.create_table("orders", partitioning=["order_id"])
    network.create_table("items", partitioning=["item_id"])
    network.publish(
        "orders", [Tuple.make("orders", order_id=i, price=i % 4, note="é" * (i % 3)) for i in range(24)]
    )
    network.publish(
        "items", [Tuple.make("items", item_id=i, price=i % 4, tags=[i, "x"]) for i in range(8)]
    )
    for address in range(len(network)):
        network.register_local_table(address, "events", [])
    network.run(2.0)

    joined = network.query(
        "SELECT order_id, item_id FROM orders JOIN items ON price = price TIMEOUT 6"
    )
    assert "rehash" in joined.explain
    assert len(joined.rows()) == 24 * 2

    grouped = network.query(
        "SELECT price, COUNT(*) AS n FROM orders GROUP BY price TIMEOUT 6",
        aggregation_strategy="hierarchical",
    )
    assert sorted((row["price"], row["n"]) for row in grouped.rows()) == [
        (price, 6) for price in range(4)
    ]

    standing = network.subscribe(
        "SELECT src, COUNT(*) AS n FROM events WINDOW 4 LIFETIME 12 GROUP BY src"
    )
    epochs = []
    standing.on_epoch(epochs.append)

    def tick(_data):
        for address in range(len(network)):
            network.append_local_rows(
                address, "events", [Tuple.make("events", src=f"s{address % 2}")]
            )
        if network.now < 10.0 + start:
            network.nodes[0].runtime.schedule_event(1.0, None, tick)

    start = network.now
    network.nodes[0].runtime.schedule_event(0.4, None, tick)
    network.run(16.0)
    assert epochs

    assert len(charges) > 200
    mismatched = [(charged, expected) for charged, expected in charges if charged != expected]
    assert mismatched == []
    assert codec.FALLBACKS.total() == 0
