"""Output checks: what makes an op pass or fail.

An *op* is one pass (cold or timed). It fails if it raises, if an output
check returns a violation, or if its simulated outputs differ from the
cold pass's. Cross-workload identities fail one op on the second
workload of the pair. Fidelity windows and golden digests are reported,
never failed: the first depends on the seed's draw, the second must not
deadlock a later PR that changes the model on purpose.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from perfbench import spec


def sim_digest(payload: Dict[str, object]) -> str:
    """Stable digest of a pass's simulated outputs.

    ``repr`` of a float round-trips exactly, so two payloads digest the
    same iff every simulated value is bit-identical."""
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def determinism_violations(cold: Dict[str, object],
                           first: Optional[Dict[str, object]],
                           payload: Dict[str, object]) -> List[str]:
    """(a) Every key the cold pass returned must repeat exactly, and
    every timed pass must equal the first timed pass in full."""
    out = [f"determinism: {key!r} differs from the cold pass"
           for key, value in cold.items() if payload.get(key) != value]
    if first is not None and payload != first:
        out.append("determinism: payload differs from the first timed pass")
    return out


def identity_violations(name: str, digest: str,
                        reference_digest: str) -> List[str]:
    """(b) ``name``'s outputs must equal its reference workload's."""
    if digest == reference_digest:
        return []
    reference = spec.WORKLOADS[name]["identical_to"]
    return [f"identity: {name} digest {digest} != {reference} digest "
            f"{reference_digest}"]


def fidelity(key: str, value: float) -> dict:
    """(d) One fidelity window, with the paper's value beside it."""
    window = spec.FIDELITY[key]
    low, high = window["window"]
    return {"what": window["what"], "value": value, "window": [low, high],
            "paper": window["paper"], "ok": low <= value <= high}


def golden_changed(name: str, seed: int, size: str, digest: str) -> bool:
    """True when a seed-0 bench-size digest drifted from the recorded one."""
    if seed != 0 or size != "bench":
        return False
    golden = spec.GOLDEN_DIGESTS_SEED0.get(name)
    return golden is not None and golden != digest
