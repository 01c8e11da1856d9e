"""Token-bucket rate limiting.

QoS rules classify flows and may attach a rate limit (bits/second). The
enforcement point matters architecturally: the traditional vSwitch and a
Nezha BE both see *all* of a vNIC's traffic, so a single local bucket
suffices. A Sirius-style pool spreads one vNIC over multiple cards, each
seeing a fraction — VM-level limiting there becomes a distributed
rate-limiting problem (§2.3.3), which Nezha avoids by construction.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigError


class TokenBucket:
    """A classic token bucket over virtual time."""

    def __init__(self, rate_bps: float, burst_bytes: int = 16 * 1024) -> None:
        if rate_bps <= 0 or burst_bytes <= 0:
            raise ConfigError("rate and burst must be positive")
        self.rate_bytes_per_s = rate_bps / 8.0
        self.burst_bytes = float(burst_bytes)
        self.tokens = float(burst_bytes)
        self.last_refill = 0.0
        self.conformed = 0
        self.dropped = 0

    def allow(self, nbytes: int, now: float, n: int = 1) -> int:
        """Police ``n`` same-size packets observed at ``now``; returns how
        many conform (a prefix — admitted packets are the first ``k``),
        so one packet reads 1 (pass) or 0 (police).

        Exactly ``n`` one-packet calls at ``now``: the bucket refills once
        (elapsed is zero from the second call on), then floor-consumes
        whole packets by repeated subtraction (not ``k * nbytes``, so the
        float token state is bit-identical) until tokens run short, after
        which every remaining packet drops with tokens unchanged.
        """
        elapsed = max(0.0, now - self.last_refill)
        self.last_refill = now
        tokens = min(self.burst_bytes,
                     self.tokens + elapsed * self.rate_bytes_per_s)
        k = 0
        while k < n and tokens >= nbytes:
            tokens -= nbytes
            k += 1
        self.tokens = tokens
        self.conformed += k
        self.dropped += n - k
        return k


class QosEnforcer:
    """Per-(vNIC, QoS class) token buckets for one enforcement point."""

    def __init__(self, burst_bytes: int = 16 * 1024) -> None:
        self.burst_bytes = burst_bytes
        self._buckets: Dict[Tuple[int, int], TokenBucket] = {}

    def allow(self, vnic_id: int, qos_class: int, rate_bps: float,
              nbytes: int, now: float, n: int = 1) -> int:
        """Police ``n`` packets in the (vNIC, class) bucket; returns the
        conforming prefix size (see :meth:`TokenBucket.allow`)."""
        key = (vnic_id, qos_class)
        bucket = self._buckets.get(key)
        if bucket is None or \
                bucket.rate_bytes_per_s != rate_bps / 8.0:
            bucket = TokenBucket(rate_bps, self.burst_bytes)
            bucket.last_refill = now
            self._buckets[key] = bucket
        return bucket.allow(nbytes, now, n)
