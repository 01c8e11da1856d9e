"""Tests for the session table and TCP FSM."""

import pytest

from repro.errors import TableFull
from repro.net import FiveTuple, IPv4Address, PROTO_TCP, TcpFlags
from repro.sim import MemoryBudget
from repro.vswitch import (
    CostModel, Direction, PreActions, SessionState, SessionTable, TcpState,
    tcp_transition,
)
from repro.vswitch.tcp_fsm import TCP_STEP
from repro.vswitch.session_table import (
    EntryMode, FLOWS_KEY_BYTES, STATE_KEY_BYTES,
)

FT = FiveTuple(IPv4Address("192.168.0.1"), IPv4Address("192.168.0.2"),
               PROTO_TCP, 1234, 80)


def make_table(capacity=100_000, variable_state=False):
    cm = CostModel.testbed()
    mem = MemoryBudget(capacity)
    return SessionTable(mem, cm, variable_state=variable_state), mem, cm


# -- TCP FSM ----------------------------------------------------------------------

def test_fsm_full_handshake():
    state = TcpState.NONE
    state = tcp_transition(state, True, TcpFlags.of("syn"))
    assert state is TcpState.SYN_SENT
    state = tcp_transition(state, False, TcpFlags.of("syn", "ack"))
    assert state is TcpState.SYN_RECEIVED
    state = tcp_transition(state, True, TcpFlags.of("ack"))
    assert state is TcpState.ESTABLISHED


def test_fsm_teardown():
    state = TcpState.ESTABLISHED
    state = tcp_transition(state, True, TcpFlags.of("fin", "ack"))
    assert state is TcpState.FIN_WAIT
    state = tcp_transition(state, False, TcpFlags.of("fin", "ack"))
    assert state is TcpState.CLOSED


def test_fsm_rst_closes_from_anywhere():
    for start in TcpState:
        assert tcp_transition(start, True, TcpFlags.of("rst")) is TcpState.CLOSED


def test_fsm_ignores_stray_packets():
    assert tcp_transition(TcpState.NONE, True, TcpFlags.of("ack")) is TcpState.NONE
    assert tcp_transition(TcpState.SYN_SENT, True, TcpFlags.of("syn")) \
        is TcpState.SYN_SENT
    # SYN/ACK from the initiator's own direction does not establish.
    assert tcp_transition(TcpState.SYN_SENT, True, TcpFlags.of("syn", "ack")) \
        is TcpState.SYN_SENT


def test_fsm_established_is_stable_under_data():
    assert tcp_transition(TcpState.ESTABLISHED, True,
                          TcpFlags.of("psh", "ack")) is TcpState.ESTABLISHED


def _longhand_step(state, from_initiator, bits):
    """The session FSM written out once more, on raw flag bits."""
    syn, ack, fin, rst = (bool(bits & TcpFlags.SYN), bool(bits & TcpFlags.ACK),
                          bool(bits & TcpFlags.FIN), bool(bits & TcpFlags.RST))
    if rst:
        return TcpState.CLOSED
    if state is TcpState.NONE and syn and not ack and from_initiator:
        return TcpState.SYN_SENT
    if state is TcpState.SYN_SENT and syn and ack and not from_initiator:
        return TcpState.SYN_RECEIVED
    if state is TcpState.SYN_RECEIVED and ack and from_initiator:
        return TcpState.ESTABLISHED
    if state is TcpState.ESTABLISHED and fin:
        return TcpState.FIN_WAIT
    if state is TcpState.FIN_WAIT and fin:
        return TcpState.CLOSED
    return state


def test_fsm_table_equals_longhand_rule():
    """6 states x 2 directions x 64 flag sets: the table the datapath
    probes is the rule, entry for entry, and holds nothing else."""
    keys = [(state, from_initiator, bits) for state in TcpState
            for from_initiator in (False, True) for bits in range(64)]
    assert len(keys) == 6 * 2 * 64 == len(TCP_STEP)
    for state, from_initiator, bits in keys:
        want = _longhand_step(state, from_initiator, bits)
        assert TCP_STEP[state, from_initiator, bits] is want
        assert tcp_transition(state, from_initiator, TcpFlags(bits)) is want


# -- SessionTable basics ---------------------------------------------------------------

def test_insert_and_lookup_bidirectional():
    table, _mem, _cm = make_table()
    entry = table.insert(100, FT, PreActions(), SessionState(), now=1.0)
    assert table.lookup(100, FT) is entry
    assert table.lookup(100, FT.reversed()) is entry  # same session
    assert table.lookup(999, FT) is None              # VNI-scoped
    assert len(table) == 1


def test_insert_same_session_returns_existing():
    table, _mem, _cm = make_table()
    first = table.insert(100, FT, PreActions(), SessionState(), now=1.0)
    second = table.insert(100, FT.reversed(), PreActions(), SessionState(),
                          now=2.0)
    assert second is first
    assert table.inserts == 1


def test_insert_sets_state_timestamps():
    table, _mem, _cm = make_table()
    state = SessionState()
    table.insert(100, FT, PreActions(), state, now=5.0)
    assert state.created_at == 5.0 and state.last_seen == 5.0


def test_remove_frees_memory():
    table, mem, _cm = make_table()
    table.insert(100, FT, PreActions(), SessionState(), now=0.0)
    used = mem.used
    assert used > 0
    assert table.remove(100, FT.reversed())  # reverse key also removes
    assert mem.used == 0
    assert not table.remove(100, FT)


def test_contains_protocol():
    table, _mem, _cm = make_table()
    table.insert(100, FT, PreActions(), SessionState(), now=0.0)
    assert (100, FT) in table
    assert (100, FT.reversed()) in table
    assert (101, FT) not in table


# -- memory accounting per mode ----------------------------------------------------------

def test_entry_bytes_by_mode():
    table, mem, cm = make_table()
    table.insert(1, FT, PreActions(), SessionState(), 0.0, EntryMode.FULL)
    full_bytes = mem.used
    assert full_bytes == FLOWS_KEY_BYTES + cm.state_bytes_fixed

    table2, mem2, _ = make_table()
    table2.insert(1, FT, PreActions(), None, 0.0, EntryMode.FLOWS_ONLY)
    assert mem2.used == FLOWS_KEY_BYTES

    table3, mem3, _ = make_table()
    table3.insert(1, FT, None, SessionState(), 0.0, EntryMode.STATE_ONLY)
    assert mem3.used == STATE_KEY_BYTES + cm.state_bytes_fixed


def test_variable_state_uses_less_memory():
    """§7.1: variable-length states lift #concurrent-flow capacity."""
    fixed, mem_fixed, _ = make_table(variable_state=False)
    variable, mem_var, _ = make_table(variable_state=True)
    state1 = SessionState(first_direction=Direction.TX)
    state2 = SessionState(first_direction=Direction.TX)
    fixed.insert(1, FT, None, state1, 0.0, EntryMode.STATE_ONLY)
    variable.insert(1, FT, None, state2, 0.0, EntryMode.STATE_ONLY)
    assert mem_var.used < mem_fixed.used


def test_table_full_raises_and_counts():
    entry_bytes = 96 + CostModel.testbed().state_bytes_fixed
    table, _mem, _cm = make_table(capacity=3 * entry_bytes)
    inserted = 0
    with pytest.raises(TableFull):
        for port in range(10):
            ft = FiveTuple(FT.src_ip, FT.dst_ip, PROTO_TCP, port + 1, 80)
            table.insert(1, ft, PreActions(), SessionState(), 0.0)
            inserted += 1
    assert inserted == 3
    assert table.insert_failures == 1


def test_capacity_estimate():
    entry_bytes = 96 + CostModel.testbed().state_bytes_fixed
    table, _mem, _cm = make_table(capacity=10 * entry_bytes)
    assert table.capacity_estimate() == 10
    table.insert(1, FT, PreActions(), SessionState(), 0.0)
    assert table.capacity_estimate() == 9


# -- clearing / vni removal ------------------------------------------------------------------

def test_clear_returns_count_and_frees_all():
    table, mem, _cm = make_table()
    for port in range(5):
        ft = FiveTuple(FT.src_ip, FT.dst_ip, PROTO_TCP, port + 1, 80)
        table.insert(1, ft, PreActions(), SessionState(), 0.0)
    assert table.clear() == 5
    assert len(table) == 0 and mem.used == 0


def test_remove_vni_is_selective():
    table, _mem, _cm = make_table()
    table.insert(1, FT, PreActions(), SessionState(), 0.0)
    ft2 = FiveTuple(FT.src_ip, FT.dst_ip, PROTO_TCP, 99, 80)
    table.insert(2, ft2, PreActions(), SessionState(), 0.0)
    assert table.remove_vni(1) == 1
    assert table.lookup(2, ft2) is not None


# -- aging ---------------------------------------------------------------------------------------

def test_sweep_removes_expired_embryonic_quickly():
    """§7.3: SYN-state sessions age fast to blunt SYN floods."""
    table, mem, _cm = make_table()
    state = SessionState()
    state.tcp_state = TcpState.SYN_SENT
    table.insert(1, FT, PreActions(), state, now=0.0)
    assert table.sweep(now=0.5) == 0          # not yet
    assert table.sweep(now=1.5) == 1          # embryonic timeout (1s)
    assert mem.used == 0
    assert table.aged_out == 1


def test_established_sessions_age_slower():
    table, _mem, _cm = make_table()
    state = SessionState()
    state.tcp_state = TcpState.ESTABLISHED
    table.insert(1, FT, PreActions(), state, now=0.0)
    assert table.sweep(now=2.0) == 0           # would have killed embryonic
    assert table.sweep(now=9.0) == 1           # > 8s established timeout


def test_touch_defers_aging():
    table, _mem, _cm = make_table()
    state = SessionState()
    state.tcp_state = TcpState.ESTABLISHED
    table.insert(1, FT, PreActions(), state, now=0.0)
    state.touch(5.0)
    assert table.sweep(now=9.0) == 0
    assert table.sweep(now=14.0) == 1


def test_flows_only_entries_never_age():
    """FE cached flows have no state; aging is a BE concern."""
    table, _mem, _cm = make_table()
    table.insert(1, FT, PreActions(), None, 0.0, EntryMode.FLOWS_ONLY)
    assert table.sweep(now=1e9) == 0
