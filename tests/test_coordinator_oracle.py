"""The fleet coordinator's allocation kernel, proven against the old code.

* **Oracle.** :class:`FleetCoordinator` (one ``_allocate`` pass for all
  four policies) and ``tests/reference_coordinator.py`` (the per-policy
  loops it replaced) settle the same hypothesis request streams. After
  every epoch they must agree on what ``settle`` returned, ``grants``,
  ``overloads``, ``utilization``, ``denied_requests`` and the decision
  journal, key order included.
* **Corpus.** No experiment reaches a ``pool_exhausted`` denial, a
  renewal, or PAM's under-granted renewal. A fixed corpus makes each of
  them fire, so the oracle is known to compare them.
* **Books.** Every invariant ``settle`` checks is tripped, by name, by a
  mutant of ``coordinator.py``'s own source compiled in memory, on a
  stream the real coordinator settles cleanly.
"""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

import repro.fleet.coordinator as coordinator_module
from repro.controller.policy import POLICY_NAMES
from repro.errors import SimulationError
from repro.fleet import FleetCoordinator
from repro.telemetry.fleet import DecisionJournal
from repro.workloads.fleet import HotspotKind

from tests.reference_coordinator import ReferenceCoordinator

KINDS = [kind.value for kind in HotspotKind]

# One epoch: vSwitch index -> (units, kinds); 16 indices over 8 tenants,
# so tenants collide and holders come back as renewals.
EPOCHS = st.dictionaries(
    st.integers(0, 15),
    st.tuples(st.integers(1, 5), st.sets(st.sampled_from(KINDS))),
    max_size=8)


def _reports(epoch):
    return [{"hot": [{"index": index, "units": units, "kinds": sorted(kinds)}
                     for index, (units, kinds) in sorted(epoch.items())]}]


def _observe(coordinator, returned):
    return (returned, dict(coordinator.grants),
            {kind: list(c) for kind, c in coordinator.overloads.items()},
            list(coordinator.utilization), coordinator.denied_requests,
            [list(event.items()) for event in coordinator.journal.events])


def _settle_both(policy, pool_units, stream, seed=0):
    """Run ``stream`` through kernel and reference, comparing each epoch;
    returns the kernel's journal."""
    kernel = FleetCoordinator(seed=seed, pool_units=pool_units,
                              policy=policy, journal=DecisionJournal())
    reference = ReferenceCoordinator(seed=seed, pool_units=pool_units,
                                     policy=policy, journal=DecisionJournal())
    for epoch, requests in enumerate(stream):
        reports = _reports(requests)
        assert (_observe(kernel, kernel.settle(epoch, reports))
                == _observe(reference, reference.settle(epoch, reports))), \
            f"epoch {epoch}"
    assert reference.preemptions == 0  # a fixed pool never preempts
    return kernel.journal.events


@settings(max_examples=150, deadline=None)
@given(st.lists(EPOCHS, min_size=1, max_size=6),
       st.sampled_from(POLICY_NAMES), st.integers(0, 8),
       st.integers(0, 3))
def test_kernel_matches_reference_coordinator(stream, policy, pool_units,
                                              seed):
    _settle_both(policy, pool_units, stream, seed)


# (policy, pool_units, stream): each line makes one rarely-reached
# decision fire.
CORPUS = [
    # 3 is denied for want of pool; next epoch 2 renews before the
    # lower-index newcomer 1 is served, and 3 still cannot fit
    ("nezha", 3, [{2: (2, {"cps"}), 3: (2, {"flows"})},
                  {1: (1, {"cps"}), 2: (2, {"cps"}), 3: (2, {"cps"})}]),
    # single-unit cap, then a renewal still one neighbor short
    ("pam", 4, [{0: (3, {"cps"})}, {0: (3, {"cps", "vnics"})}]),
    # 8 shares tenant 0 with 0 and is refused; 1 is capped at its quota
    ("supernic", 16, [{0: (2, {"cps"}), 1: (3, {"flows"}),
                       8: (2, {"cps"})}]),
    # quota 1 per tenant: 0 and 1 fit the 2-unit pool, 2 does not
    ("supernic", 2, [{0: (1, {"cps"}), 1: (1, {"cps"}), 2: (1, {"cps"})}]),
    ("sirius", 4, [{0: (1, {"cps", "vnics"})}]),
]


def test_corpus_fires_what_no_experiment_reaches():
    fired = set()
    for policy, pool_units, stream in CORPUS:
        for event in _settle_both(policy, pool_units, stream):
            fired.add((event["action"], event.get("reason")))
            # New under-grants are new grants, so more under-grants than
            # new grants means a renewal was under-granted.
            if (policy == "pam" and event["action"] == "settle"
                    and event["under_granted"] > event["granted_new"]):
                fired.add(("renewal", "under_granted"))
    assert {("denial", "pool_exhausted"), ("renewal", None),
            ("renewal", "under_granted"), ("denial", "tenant_quota"),
            ("grant", "single_unit_cap"), ("grant", "tenant_quota_cap"),
            ("denial", "no_pool")} <= fired


# -- the books --------------------------------------------------------------

def _mutant(old, new):
    """``FleetCoordinator`` compiled from coordinator.py with one edit."""
    source = inspect.getsource(coordinator_module)
    assert source.count(old) == 1, f"mutation site moved: {old!r}"
    namespace = {"__name__": "coordinator_mutant"}
    exec(compile(source.replace(old, new), coordinator_module.__file__,
                 "exec"), namespace)
    return namespace["FleetCoordinator"]


def _hot(index, units, kinds=("cps",)):
    return {"index": index, "units": units, "kinds": list(kinds)}


# (check name, source edit, policy, pool_units, per-epoch hot lists)
BOOK_MUTANTS = [
    ("unique requests",  # a shard's report submitted twice
     ("for report in reports:", "for report in reports + reports[:1]:"),
     "nezha", 4, [[_hot(1, 1)]]),
    ("request units",  # a demand rounded down to nothing
     ('entry["units"],', 'entry["units"] - 1,'),
     "nezha", 4, [[_hot(1, 1)]]),
    ("grants requested",  # a quiet holder keeps its grant
     ("del self.grants[index]", "pass"),
     "nezha", 4, [[_hot(1, 1)], []]),
    ("request conservation",  # a denial nobody counts
     ("self.denied_requests += 1", "pass"),
     "nezha", 0, [[_hot(1, 1)]]),
    ("pool capacity",  # a grant that ignores the free pool
     ("if 0 < grant <= free:", "if 0 < grant:"),
     "nezha", 1, [[_hot(1, 2)]]),
    ("grant units",  # a zero cap granted instead of denied
     ("if 0 < grant <= free:", "if grant <= free:"),
     "supernic", 8, [[_hot(0, 1), _hot(8, 1)]]),
    ("tenant quota",  # the SuperNIC cap forgets what the tenant holds
     ("quota - usage.get(tenant, 0)", "quota"),
     "supernic", 8, [[_hot(0, 1), _hot(8, 1)]]),
    ("residual bounds",  # a denied overload counted twice
     ("counters[1] += 1          # denied", "counters[1] += 2  # denied"),
     "nezha", 0, [[_hot(1, 1)]]),
]


@pytest.mark.parametrize("name,edit,policy,pool_units,stream", BOOK_MUTANTS,
                         ids=[mutant[0] for mutant in BOOK_MUTANTS])
def test_book_check_trips_on_its_mutant(name, edit, policy, pool_units,
                                        stream):
    def settle_all(cls):
        coordinator = cls(seed=0, pool_units=pool_units, policy=policy)
        for epoch, hot in enumerate(stream):
            coordinator.settle(epoch, [{"hot": hot}])

    settle_all(FleetCoordinator)  # the stream alone is fine
    with pytest.raises(SimulationError, match=f": {name} "):
        settle_all(_mutant(*edit))


def test_negative_pool_is_rejected():
    with pytest.raises(ValueError, match="pool_units"):
        FleetCoordinator(seed=0, pool_units=-1)
