"""Shard-to-worker placement policy for distributed execution.

:class:`ShardPlacement` maps each shard of a hash-partitioned layout to
one worker process of a :class:`~repro.distributed.workerpool.WorkerPool`.
The default assignment is rendezvous (highest-random-weight) hashing:
every (shard, worker) pair gets a deterministic pseudo-random score and
each shard goes to its highest-scoring worker.  The property that makes
rendezvous the right default here is *minimal movement* — removing a
worker reassigns only the shards that worker owned (every other shard's
argmax is unchanged), so a worker death during a query moves exactly the
victim's shards to siblings and the warm worker-local index caches of
the survivors stay valid.

Two routing flavors exist:

``"hash"``
    Shards are the probe-hash shards of a root-attached
    :class:`~repro.storage.partition.PartitionedTable` join child;
    driver rows route to shards via
    :func:`~repro.storage.partition._probe_shard_ids` on the root join
    column, so each worker's driver rows (mostly) match its own shards.
``"stripe"``
    No root-attached shardable edge exists (unpartitioned catalog, or
    the first join is not on the shard key); the driver row range is
    cut into ``num_workers`` contiguous stripes, one per worker, with
    the identity assignment.

Either way the placement is a partition of the shard/stripe ids — every
shard owned by exactly one worker — which :meth:`ShardPlacement.validate`
checks on every pool run.
:meth:`ShardPlacement.describe` renders the explain-able descriptor that
ends up on distributed :class:`~repro.engine.executor.ExecutionResult` s.

This module is dependency-free (stdlib only) so the planner can import
:data:`PLACEMENT_CHOICES` without pulling in process-pool machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "DEFAULT_MAX_WORKERS",
    "PLACEMENT_CHOICES",
    "ShardPlacement",
    "rendezvous_score",
]

#: valid values of the ``placement`` knob
PLACEMENT_CHOICES: Tuple[str, ...] = ("local", "distributed")

#: cap on the auto-resolved worker count (``num_workers=0`` resolves to
#: ``min(DEFAULT_MAX_WORKERS, cpu_count)``) — execution workers are
#: memory-heavy (each holds a full catalog replica), so the default
#: stays modest and explicit ``num_workers`` overrides it
DEFAULT_MAX_WORKERS = 4

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(value: int) -> int:
    """The splitmix64 finalizer — same mixer the shard router uses."""
    value = (value + _GOLDEN) & _MASK
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK
    value ^= value >> 31
    return value


def rendezvous_score(shard: int, worker: int) -> int:
    """Deterministic highest-random-weight score for a (shard, worker).

    Pure integer arithmetic — identical in every process on every
    platform, which is what lets driver and workers agree on the
    assignment without exchanging it.
    """
    return _splitmix64(_splitmix64(shard + 1) ^ ((worker + 1) * _GOLDEN & _MASK))


@dataclass(frozen=True)
class ShardPlacement:
    """An explainable assignment of shards to workers.

    ``assignment[shard]`` is the worker owning that shard; ``workers``
    are the live worker ids the assignment draws from (a placement
    after failures may use fewer workers than the pool was sized for).
    """

    num_shards: int
    workers: Tuple[int, ...]
    assignment: Tuple[int, ...]
    #: how driver rows map to shards: "hash" (probe-hash of the routing
    #: join column) or "stripe" (contiguous driver-row stripes)
    routing: str = "hash"
    #: the join child/attribute whose partitioned layout defined the
    #: shards (hash routing only)
    routing_relation: Optional[str] = None
    routing_attr: Optional[str] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def rendezvous(
        cls,
        num_shards: int,
        workers: Tuple[int, ...],
        *,
        routing: str = "hash",
        routing_relation: Optional[str] = None,
        routing_attr: Optional[str] = None,
    ) -> "ShardPlacement":
        """Rendezvous-hash every shard onto the given workers."""
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        workers = tuple(sorted(set(workers)))
        if not workers:
            raise ValueError("placement needs at least one worker")
        assignment = tuple(
            # ties (never observed with splitmix64, but cheap to pin)
            # break toward the lower worker id
            max(workers, key=lambda w: (rendezvous_score(shard, w), -w))
            for shard in range(num_shards)
        )
        return cls(
            num_shards=num_shards,
            workers=workers,
            assignment=assignment,
            routing=routing,
            routing_relation=routing_relation,
            routing_attr=routing_attr,
        )

    @classmethod
    def striped(cls, num_workers: int) -> "ShardPlacement":
        """One contiguous driver stripe per worker, identity-assigned."""
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        workers = tuple(range(num_workers))
        return cls(
            num_shards=num_workers,
            workers=workers,
            assignment=workers,
            routing="stripe",
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def worker_of(self, shard: int) -> int:
        return self.assignment[shard]

    def shards_of(self, worker: int) -> Tuple[int, ...]:
        return tuple(
            shard for shard, owner in enumerate(self.assignment)
            if owner == worker
        )

    def without(self, worker: int) -> "ShardPlacement":
        """The placement after losing ``worker``.

        Only the dead worker's shards are reassigned (rendezvous among
        the survivors); every other shard keeps its owner — for hash
        routing this equals a full rendezvous recompute over the
        survivor set (the minimal-movement property), and for stripe
        routing it avoids shuffling healthy stripes.
        """
        survivors = tuple(w for w in self.workers if w != worker)
        if not survivors:
            raise ValueError("placement would have no workers left")
        assignment = tuple(
            owner if owner != worker
            else max(survivors, key=lambda w: (rendezvous_score(shard, w), -w))
            for shard, owner in enumerate(self.assignment)
        )
        return ShardPlacement(
            num_shards=self.num_shards,
            workers=survivors,
            assignment=assignment,
            routing=self.routing,
            routing_relation=self.routing_relation,
            routing_attr=self.routing_attr,
        )

    def validate(self) -> None:
        """Raise unless every shard is owned by exactly one live worker."""
        if len(self.assignment) != self.num_shards:
            raise ValueError(
                f"placement covers {len(self.assignment)} shards, "
                f"expected {self.num_shards}"
            )
        live = set(self.workers)
        for shard, owner in enumerate(self.assignment):
            if owner not in live:
                raise ValueError(
                    f"shard {shard} assigned to non-member worker {owner}"
                )
        owned = [s for w in self.workers for s in self.shards_of(w)]
        if sorted(owned) != list(range(self.num_shards)):
            raise ValueError(
                "shards_of() partition disagrees with the assignment"
            )

    def describe(self) -> Dict[str, Any]:
        """The explain-able placement descriptor."""
        descriptor: Dict[str, Any] = {
            "routing": self.routing,
            "num_shards": self.num_shards,
            "workers": list(self.workers),
            "assignment": {
                shard: owner for shard, owner in enumerate(self.assignment)
            },
            "shards_by_worker": {
                worker: list(self.shards_of(worker)) for worker in self.workers
            },
        }
        if self.routing_relation is not None:
            descriptor["routing_relation"] = self.routing_relation
            descriptor["routing_attr"] = self.routing_attr
        return descriptor
