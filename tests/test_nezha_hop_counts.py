"""A perf regression test that is a count, not a clock.

A tenant packet is parsed once, where the VM sends it; its flow key, flow
hash and wire length are then *carried* through every encap / decap / NSH
hop (DESIGN §3). A hop's context is sealed to TLV bytes once per distinct
payload, not once per hop: hops that carry equal TLVs share one sealed
context, and the receiver decodes each distinct byte string once. The
sha256 flow hash is likewise computed once per distinct flow key, not
once per packet that parsed one. The invalidate-and-rebuild pattern this replaced cost 3.8 FiveTuple
constructions and 1.9 sha256 flow hashes per packet a VM sent, and 2.0
context encodes per hop; the bounds below fail on it. Recorded mutant:
``_sealed_context`` without its ``lru_cache`` seals once per hop, and
the seal count below fails.

Likewise every hop of the packet path is one timed engine event: a CPU
job's completion settles inside its own heap pop and the ToR books its
egress link at arrival (DESIGN §3, §5.2). The relays this replaced cost
7.9 events per vSwitch packet on the BE<->FE path and 5.5 without it.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.core import backend, frontend, header
from repro.experiments import fig9
from repro.host.guest_tcp import GuestTcp
from repro.host.vm import Vm
from repro.net import five_tuple as five_tuple_module
from repro.net.five_tuple import FiveTuple
from repro.net.nsh import NshContext
from repro.telemetry.profiler import EngineProfiler


def _counting(monkeypatch, counts, name, owner, attr):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_offloaded_packet_is_parsed_once_and_hop_encoded_once(monkeypatch):
    counts = dict.fromkeys(
        ["constructions", "sha256", "seals", "decodes", "sends",
         "reversed_keys", "conn_keys", "notify_decodes", "hops"], 0)
    _counting(monkeypatch, counts, "constructions", FiveTuple, "__init__")
    _counting(monkeypatch, counts, "decodes", NshContext, "decode")
    encode = NshContext.encode

    def seal(ctx):
        counts["seals"] += ctx._enc is None
        return encode(ctx)

    monkeypatch.setattr(NshContext, "encode", seal)
    # Interned contexts and decodes outlive a run: start from none.
    header._sealed_context.cache_clear()
    header._decode_context.cache_clear()
    _counting(monkeypatch, counts, "sends", Vm, "send")
    _counting(monkeypatch, counts, "reversed_keys", FiveTuple, "reversed")
    _counting(monkeypatch, counts, "conn_keys", GuestTcp, "open")
    _counting(monkeypatch, counts, "notify_decodes", header,
              "decode_five_tuple")
    # BE and FE bind the hop builder by name.
    payloads = set()
    build = backend.build_nezha_hop

    def build_hop(*args, **kwargs):
        counts["hops"] += 1
        hop = build(*args, **kwargs)
        payloads.add(hop.nsh().context.encode())
        return hop

    monkeypatch.setattr(backend, "build_nezha_hop", build_hop)
    monkeypatch.setattr(frontend, "build_nezha_hop", build_hop)

    def sha256(data):
        counts["sha256"] += 1
        return hashlib.sha256(data)

    # FiveTuple.hash reaches sha256 only past its per-flow-key cache.
    monkeypatch.setattr(five_tuple_module, "hashlib",
                        SimpleNamespace(sha256=sha256))
    five_tuple_module._flow_hash.cache_clear()
    hashed = set()
    flow_hash = FiveTuple.hash

    def hash_(ft, seed=0):
        hashed.add((seed, ft.src_ip.value, ft.dst_ip.value, ft.proto,
                    ft.src_port, ft.dst_port))
        return flow_hash(ft, seed)

    monkeypatch.setattr(FiveTuple, "hash", hash_)

    cps = fig9.run_point((2, 0.05, 0.03, 8, 0))

    assert cps > 0 and counts["sends"] > 500 and counts["hops"] > 500
    # Exact: one seal and one decode per distinct TLV payload carried.
    assert counts["seals"] == len(payloads) < counts["hops"]
    assert counts["decodes"] == len(payloads)
    assert counts["sha256"] == len(hashed) < counts["sends"]
    # Every flow key built is the parse where a VM sent the packet, the
    # reversed() key of an RX-direction rule lookup, a guest connection's
    # key, or a decoded notify — never a re-parse at a layer boundary.
    assert counts["constructions"] <= (
        counts["sends"] + counts["reversed_keys"] + counts["conn_keys"]
        + counts["notify_decodes"])


@pytest.mark.parametrize("n_fes, bound", [(2, 5.0), (0, 3.5)])
def test_engine_events_per_vswitch_packet(monkeypatch, n_fes, bound):
    """4.54 events per vSwitch packet offloaded, 3.10 local. Recorded
    mutant: one ``call_at(end, engine.call_soon, fn, *args)`` restored in
    ``CpuResource.try_submit_call`` reads 6.87 / 4.93."""
    built = []

    def build_testbed(**kwargs):
        testbed = fig9_build_testbed(**kwargs)
        testbed.engine.profiler = EngineProfiler()
        built.append(testbed)
        return testbed

    fig9_build_testbed = fig9.build_testbed
    monkeypatch.setattr(fig9, "build_testbed", build_testbed)
    assert fig9.run_point((n_fes, 0.2, 0.1, 8, 3)) > 0
    (testbed,) = built
    packets = sum(vswitch.stats.tx_packets + vswitch.stats.rx_packets
                  for vswitch in testbed.vswitches)
    assert packets > 4000
    assert testbed.engine.profiler.total_events / packets <= bound
