"""Tenant-to-shard routing for the sharded fleet control plane.

A control plane (:mod:`repro.engine.controlplane`) splits the fleet into
shards — node groups hosting a slice (or a replica) of the model zoo —
and every admitted frame must land on exactly one of them.  The routing
decision has to be *deterministic* (the control plane's
bit-reproducibility contract extends the scheduler's) and *stable* under
fleet churn (an autoscaler resizing a shard's node count must never move
tenants — moves invalidate cache locality).

The policy is highest-random-weight (HRW, rendezvous) hashing: each
``(tenant, shard)`` pair gets a stable SHA-256 score and the tenant
routes to the highest-scoring *eligible* shard.  Classic rendezvous
guarantees follow: routing never depends on node counts at all, and
removing a shard moves exactly the tenants that were on it while adding
one moves only the tenants whose new top score is the newcomer
(``tests/test_properties.py`` pins both).

Eligibility: a shard is eligible for a request when it hosts the
request's model key (zoo sharding); when no shard hosts it, every shard
is.

Determinism: scores hash only ``(salt, shard name, tenant)`` — no
``hash()`` randomization, no wall clock, no RNG state.
"""

from __future__ import annotations

import hashlib
from typing import Protocol, Sequence


class ShardView(Protocol):
    """What a router is allowed to see of a shard.

    Deliberately *excludes* node counts and load: routing that peeks at
    capacity would move tenants whenever the autoscaler breathes.
    """

    name: str

    def hosts(self, model_key: str) -> bool: ...


def rendezvous_score(salt: int, shard_name: str, tenant: str) -> int:
    """Stable HRW score of one (tenant, shard) pair.

    The first 8 digest bytes as a big-endian integer — 64 bits is far
    beyond what shard-count tie probabilities need, and slicing the
    digest keeps the comparison cheap.
    """
    digest = hashlib.sha256(
        f"{salt}|{shard_name}|{tenant}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


class RendezvousRouter:
    """Highest-random-weight tenant routing over the hosting shards."""

    def __init__(self, salt: int = 0) -> None:
        self.salt = int(salt)

    def eligible(
        self, model_key: str, shards: Sequence[ShardView]
    ) -> list[ShardView]:
        """Shards a request may land on: those hosting ``model_key``, or
        every shard when none does."""
        if not shards:
            raise ValueError("cannot route with zero shards")
        hosting = [shard for shard in shards if shard.hosts(model_key)]
        return hosting or list(shards)

    def route(
        self, tenant: str, model_key: str, shards: Sequence[ShardView]
    ) -> ShardView:
        """The one shard this (tenant, model) pair lands on."""
        candidates = self.eligible(model_key, shards)
        # Max score wins; the (score, name) key makes an (astronomically
        # unlikely) score tie deterministic rather than list-order-bound.
        return max(
            candidates,
            key=lambda shard: (
                rendezvous_score(self.salt, shard.name, tenant),
                shard.name,
            ),
        )

    def __repr__(self) -> str:  # audit trails embed the router spec
        return f"{type(self).__name__}(salt={self.salt})"


__all__ = [
    "RendezvousRouter",
    "ShardView",
    "rendezvous_score",
]
