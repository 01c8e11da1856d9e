"""A perf regression test that is a count, not a clock.

A tenant packet is parsed once, where the VM sends it; its flow key, flow
hash and wire length are then *carried* through every encap / decap / NSH
hop (DESIGN §3), and a hop's context is encoded to TLV bytes exactly
once. The invalidate-and-rebuild pattern this replaced cost 3.8 FiveTuple
constructions and 1.9 sha256 flow hashes per packet a VM sent, and 2.0
context encodes per hop; the bounds below fail on it.
"""

import hashlib
from types import SimpleNamespace

from repro.core import backend, frontend, header
from repro.experiments import fig9
from repro.host.guest_tcp import GuestTcp
from repro.host.vm import Vm
from repro.net import five_tuple as five_tuple_module
from repro.net.five_tuple import FiveTuple
from repro.net.nsh import NshContext


def _counting(monkeypatch, counts, name, owner, attr):
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_offloaded_packet_is_parsed_once_and_hop_encoded_once(monkeypatch):
    counts = dict.fromkeys(
        ["constructions", "sha256", "encodes", "sends", "reversed_keys",
         "conn_keys", "notify_decodes", "hops"], 0)
    _counting(monkeypatch, counts, "constructions", FiveTuple, "__init__")
    _counting(monkeypatch, counts, "encodes", NshContext, "encode")
    _counting(monkeypatch, counts, "sends", Vm, "send")
    _counting(monkeypatch, counts, "reversed_keys", FiveTuple, "reversed")
    _counting(monkeypatch, counts, "conn_keys", GuestTcp, "open")
    _counting(monkeypatch, counts, "notify_decodes", header,
              "decode_five_tuple")
    # BE and FE bind the hop builder by name.
    _counting(monkeypatch, counts, "hops", backend, "build_nezha_hop")
    monkeypatch.setattr(frontend, "build_nezha_hop", backend.build_nezha_hop)

    def sha256(data):
        counts["sha256"] += 1
        return hashlib.sha256(data)

    # FiveTuple.hash reaches sha256 only past its memo.
    monkeypatch.setattr(five_tuple_module, "hashlib",
                        SimpleNamespace(sha256=sha256))

    cps = fig9.run_point((2, 0.05, 0.03, 8, 0))

    assert cps > 0 and counts["sends"] > 500 and counts["hops"] > 500
    assert counts["encodes"] == counts["hops"]
    assert counts["sha256"] <= counts["sends"]
    # Every flow key built is the parse where a VM sent the packet, the
    # reversed() key of an RX-direction rule lookup, a guest connection's
    # key, or a decoded notify — never a re-parse at a layer boundary.
    assert counts["constructions"] <= (
        counts["sends"] + counts["reversed_keys"] + counts["conn_keys"]
        + counts["notify_decodes"])
