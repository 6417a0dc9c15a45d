"""Per-layer metrics of a traced episode.

Counts come from the tracer's observations at the layer boundaries, from
counters the program already keeps (`PortProtocol.stats`, `crc_errors`,
`Channel.transmissions`, `LinkReassembler.resets`) and from the event log.
Times are self times per call from the traced spans, except
`link.us_per_frame`, which comes from the untraced reference episodes.
"""

from __future__ import annotations

from modbot.sim import US_PER_CS

from workloads import percentile

ANNOUNCE_KINDS = ("VERSION_ANNOUNCE", "HELLO")
SIZE_BUCKETS = ((7, 7), (8, 32), (33, 64), (65, 128), (129, 256), (257, 262))


def size_histogram(sizes) -> dict[str, int]:
    return {f"{lo}-{hi}" if lo != hi else str(lo):
            sum(count for size, count in sizes.items() if lo <= size <= hi)
            for lo, hi in SIZE_BUCKETS}


def per_layer(tracer, world, outcome, untraced: dict):
    """(metrics for the JSON line, metrics that are only reported)."""
    m: dict[str, tuple[float, str]] = {}
    extra: dict[str, tuple[float, str]] = {}

    def count(name: str) -> int:
        return tracer.stat(name)[0]

    def self_us(name: str) -> float:
        calls, _, self_ns = tracer.stat(name)
        return self_ns / calls / 1e3 if calls else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # sim
    events = sum(c for nid, (c, _, _) in tracer.stats.items()
                 if ".event:" in tracer.names[nid])
    m["sim.events_fired"] = (events, "count")
    m["sim.cancelled_share"] = (ratio(tracer.timers_cancelled, tracer.timers_scheduled), "ratio")
    m["sim.event_self_us"] = (ratio(tracer.stat("sim.run_until")[2], events) / 1e3, "us")
    m["sim.log_render_s"] = (untraced["render_s"], "s")

    # link
    ports = [rt.protocol for module in world.modules.values() for rt in module.ports.values()]
    stats = [p.stats for p in ports]
    tx_data = sum(s.tx_data for s in stats)
    frames = sum(link.transmissions for link in world.links)
    sent = sum(tracer.frame_sizes.values())
    m["link.frames"] = (frames, "count")
    m["link.frame_bytes_mean"] = (
        ratio(sum(size * n for size, n in tracer.frame_sizes.items()), sent), "B")
    m["link.small_frame_share"] = (
        ratio(sum(n for size, n in tracer.frame_sizes.items() if size <= 32), sent), "ratio")
    m["link.us_per_frame"] = (untraced["us_per_frame"], "us")
    m["link.crc16.calls"] = (count("link.crc16"), "count")
    m["link.crc16.ns_per_byte"] = (ratio(tracer.stat("link.crc16")[2], tracer.crc_bytes), "ns/B")
    m["link.encode_frame.self_us"] = (self_us("link.encode_frame"), "us")
    m["link.decoder_feed.self_us"] = (self_us("link.decoder_feed"), "us")
    m["link.on_bytes.self_us"] = (self_us("link.on_bytes"), "us")
    retransmissions = sum(max(0, t.transmissions - 1) for _, t, _ in tracer.tickets)
    m["link.retx_share"] = (ratio(retransmissions, tx_data), "ratio")
    m["link.give_ups"] = (sum(s.give_ups for s in stats), "count")
    m["link.rx_duplicates"] = (sum(s.rx_duplicates for s in stats), "count")
    m["link.stale_acks"] = (sum(s.stale_acks for s in stats), "count")
    m["link.crc_errors"] = (sum(p.crc_errors for p in ports), "count")
    m["link.useful_ratio"] = (ratio(sum(s.rx_delivered for s in stats), tx_data), "ratio")
    waits = [(done[0] - sent_us) / US_PER_CS for sent_us, _, done in tracer.tickets if done]
    m["link.ticket_p50_cs"] = (percentile(waits, 50), "cs")
    m["link.ticket_p99_cs"] = (percentile(waits, 99), "cs")

    # messages
    m["messages.encode.self_us"] = (self_us("messages.encode"), "us")
    m["messages.decode.self_us"] = (self_us("messages.decode"), "us")
    m["messages.split.self_us"] = (self_us("messages.split"), "us")
    m["messages.reassemble.self_us"] = (self_us("messages.reassemble"), "us")
    m["messages.reassembler_resets"] = (
        sum(r.resets for r in tracer.reassemblers.values()), "count")
    m["messages.chunks_per_message"] = (ratio(tracer.split_chunks, tracer.split_calls), "ratio")

    # node
    kinds = tracer.message_kinds
    log_kinds = {}
    for _, _, kind, _ in world.log.records:
        log_kinds[kind] = log_kinds.get(kind, 0) + 1
    m["node.on_link_payload.self_us"] = (self_us("node.on_link_payload"), "us")
    m["node.announce_share"] = (
        ratio(sum(kinds[k] for k in ANNOUNCE_KINDS), sum(kinds.values())), "ratio")
    m["node.execute.count"] = (count("node.execute"), "count")
    extra["node.execute.self_us"] = (self_us("node.execute"), "us")
    m["node.pushes"] = (log_kinds.get("push", 0), "count")
    m["node.push_fails"] = (log_kinds.get("push-fail", 0), "count")
    m["node.transfer_resets"] = (log_kinds.get("transfer-reset", 0), "count")

    # engine
    m["engine.evaluate.count"] = (count("engine.evaluate"), "count")
    extra["engine.evaluate.self_us"] = (self_us("engine.evaluate"), "us")
    m["engine.on_invoke.count"] = (count("engine.on_invoke"), "count")
    m["engine.runs"] = (log_kinds.get("run-begin", 0), "count")

    # dynarole
    extra["dynarole.parse_program.self_us"] = (self_us("dynarole.parse_program"), "us")
    m["dynarole.assign_role.count"] = (count("dynarole.assign_role"), "count")
    extra["dynarole.assign_role.self_us"] = (self_us("dynarole.assign_role"), "us")
    m["dynarole.chain.calls"] = (count("dynarole.chain"), "count")

    # world
    parse_ns = tracer.stat("world.parse_topology")[2] + tracer.stat("world.parse_scenario")[2]
    m["world.parse.self_us"] = (parse_ns / 1e3, "us")
    m["world.build.self_us"] = (tracer.stat("world.build")[2] / 1e3, "us")
    m["world.transmit.self_us"] = (self_us("world.transmit"), "us")
    m["world.snapshot.count"] = (count("world.snapshot"), "count")
    horizon_us = outcome.horizon_cs * US_PER_CS
    m["world.channel_busy_share"] = (ratio(tracer.busy_us, 2 * len(world.links) * horizon_us),
                                     "ratio")

    # tracing itself and where the time went
    by_layer = tracer.self_ns_by_layer()
    total = sum(by_layer.values())
    for layer, ns in by_layer.items():
        m[f"self_share.{layer}"] = (100 * ratio(ns, total), "%")
    m["trace.overhead_x"] = (untraced["overhead_x"], "ratio")
    m["trace.spans"] = (tracer.span_count, "count")
    return m, extra
