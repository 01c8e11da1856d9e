"""Tests for middlebox profiles and the SLB application."""

import pytest

from repro.fabric import Topology
from repro.host import Vm
from repro.middlebox import SlbApp, lb_profile, nat_profile, tr_profile
from repro.net import IPv4Address, MacAddress, Packet, TcpFlags
from repro.sim import Engine
from repro.vswitch import CostModel, Vnic, VSwitch
from repro.vswitch.vswitch import make_standard_chain

from tests.conftest import wire_mapping


# -- profiles ---------------------------------------------------------------------

def test_profile_chain_compositions():
    cm = CostModel.testbed()
    lb_chain = lb_profile().build_chain(cm)
    nat_chain = nat_profile().build_chain(cm)
    tr_chain = tr_profile().build_chain(cm)
    assert lb_chain.table("acl") is not None
    assert nat_chain.table("acl") is not None
    assert tr_chain.table("acl") is None          # TR bypasses the ACL
    assert len(tr_chain.tables) < len(nat_chain.tables)


def test_tr_lookup_cheapest_lb_nat_pricier():
    """§6.3.1: the more complex the rule lookup, the bigger the Nezha gain;
    TR's lookup is the cheapest of the three."""
    cm = CostModel.testbed()
    costs = {p.name: p.build_chain(cm).lookup_cost(64)
             for p in (lb_profile(), nat_profile(), tr_profile())}
    assert costs["transit-router"] < costs["nat-gateway"]
    assert costs["transit-router"] < costs["load-balancer"]


def test_profiles_scale_table_memory():
    assert lb_profile(scale=1.0).table_memory_bytes == pytest.approx(
        50 * lb_profile(scale=50.0).table_memory_bytes, rel=1e-5)


# -- a little 4-party cloud for apps -------------------------------------------------

VNI = 100


def build_app_cloud(n=4):
    """n servers, one vNIC each at 192.168.0.(i+1), fully meshed mapping."""
    engine = Engine()
    cm = CostModel.testbed()
    topo = Topology.leaf_spine(engine, 1, n)
    vswitches = [VSwitch(engine, s, cm) for s in topo.servers]
    chains = [make_standard_chain(cm) for _ in range(n)]
    vnics = []
    for i, chain in enumerate(chains):
        ip = IPv4Address(f"192.168.0.{i + 1}")
        for j in range(n):
            wire_mapping(chain.table("vnic_server_mapping"), VNI,
                         IPv4Address(f"192.168.0.{j + 1}"), topo.servers[j])
        vnic = Vnic(i + 1, VNI, ip, MacAddress(0xC0 + i), chain)
        vswitches[i].add_vnic(vnic)
        vnics.append(vnic)
    return engine, vswitches, vnics


# -- SLB ------------------------------------------------------------------------------------

def test_slb_proxies_request_to_rs_and_back():
    engine, vswitches, vnics = build_app_cloud()
    lb_vm = Vm(engine, "lb", vcpus=8)
    lb_vm.attach_vnic(vnics[1])
    # RS is a simple responder VM on vnics[3].
    rs_vm = Vm(engine, "rs", vcpus=8)
    rs_vm.attach_vnic(vnics[3])
    from repro.host import GuestTcp
    rs = GuestTcp(rs_vm, vnics[3])
    rs.serve(8080)
    lb = SlbApp(lb_vm, vnics[1], vip_port=80,
                real_servers=[vnics[3].tenant_ip])

    client_got = []
    vnics[0].attach_guest(client_got.append)
    # Client SYN to the VIP.
    vswitches[0].send_from_vnic(vnics[0], Packet.tcp(
        vnics[0].tenant_ip, vnics[1].tenant_ip, 7777, 80,
        TcpFlags.of("syn")))
    engine.run(until=0.5)
    assert lb.client_transactions == 1
    assert any(p.find(TcpFlags.__mro__[0]) or True for p in client_got)
    # Client request.
    vswitches[0].send_from_vnic(vnics[0], Packet.tcp(
        vnics[0].tenant_ip, vnics[1].tenant_ip, 7777, 80,
        TcpFlags.of("psh", "ack"), b"GET /"))
    engine.run(until=2.0)
    assert lb.proxied_requests == 1
    assert lb.responses_returned == 1
    assert lb.persistent_backends == 1
    # The client saw: SYN/ACK + proxied response.
    payloads = [p.payload for p in client_got if p.payload]
    assert any(b"r" in pl for pl in payloads)
