"""Unit tests for the shard-to-worker placement policy."""

import dataclasses

import pytest

from repro.analysis import verify_plan
from repro.distributed.placement import (
    PLACEMENT_CHOICES,
    ShardPlacement,
    rendezvous_score,
)
from repro.planner import Planner
from repro.service.session import QuerySession

from tests.helpers import make_small_catalog

SQL = (
    "SELECT * FROM R1, R2, R3 "
    "WHERE R1.B = R2.B AND R2.C = R3.C"
)


class TestRendezvous:
    def test_deterministic_and_total(self):
        a = ShardPlacement.rendezvous(16, (0, 1, 2))
        b = ShardPlacement.rendezvous(16, (2, 1, 0))
        assert a.assignment == b.assignment  # order-insensitive
        assert len(a.assignment) == 16
        assert set(a.assignment) <= {0, 1, 2}
        a.validate()

    def test_scores_are_pure_integers(self):
        assert rendezvous_score(3, 1) == rendezvous_score(3, 1)
        assert rendezvous_score(3, 1) != rendezvous_score(3, 2)

    def test_without_moves_only_the_victims_shards(self):
        before = ShardPlacement.rendezvous(32, (0, 1, 2, 3))
        after = before.without(2)
        after.validate()
        assert 2 not in after.workers
        for shard in range(32):
            if before.worker_of(shard) != 2:
                assert after.worker_of(shard) == before.worker_of(shard)
            else:
                assert after.worker_of(shard) != 2

    def test_without_equals_rendezvous_over_survivors(self):
        # the minimal-movement property: dropping a worker from a
        # rendezvous placement IS the rendezvous placement of the rest
        lost = ShardPlacement.rendezvous(32, (0, 1, 2, 3)).without(1)
        fresh = ShardPlacement.rendezvous(32, (0, 2, 3))
        assert lost.assignment == fresh.assignment

    def test_without_last_worker_raises(self):
        placement = ShardPlacement.rendezvous(4, (0,))
        with pytest.raises(ValueError):
            placement.without(0)

    def test_striped_is_identity(self):
        placement = ShardPlacement.striped(3)
        assert placement.routing == "stripe"
        assert placement.assignment == (0, 1, 2)
        placement.validate()

    def test_validate_rejects_non_member_owner(self):
        placement = ShardPlacement(
            num_shards=2, workers=(0,), assignment=(0, 5)
        )
        with pytest.raises(ValueError):
            placement.validate()

    def test_validate_rejects_wrong_arity(self):
        placement = ShardPlacement(
            num_shards=3, workers=(0,), assignment=(0, 0)
        )
        with pytest.raises(ValueError):
            placement.validate()

    def test_describe_is_explainable(self):
        placement = ShardPlacement.rendezvous(
            4, (0, 1), routing_relation="R2", routing_attr="B"
        )
        descriptor = placement.describe()
        assert descriptor["routing"] == "hash"
        assert descriptor["routing_relation"] == "R2"
        assert sorted(descriptor["assignment"]) == [0, 1, 2, 3]
        covered = sorted(
            shard for shards in descriptor["shards_by_worker"].values()
            for shard in shards
        )
        assert covered == [0, 1, 2, 3]


class TestPlanlintPlacement:
    def test_distributed_plan_verifies_clean(self):
        session = QuerySession(
            make_small_catalog(), placement="distributed", num_workers=2
        )
        plan = session.plan(SQL)
        assert plan.placement == "distributed"
        assert plan.num_workers == 2
        assert verify_plan(plan, source=SQL, level="full") == ()

    def test_placement_binds_from_the_resolved_request(self):
        """Placement and workers are the request's, bound on the plan:
        ``num_workers=0`` resolves to a count under distributed
        placement and to 0 under local placement."""
        auto = QuerySession(make_small_catalog(), placement="distributed",
                            num_workers=0).plan(SQL)
        assert auto.num_workers >= 1
        assert auto.num_workers == auto.options.num_workers
        local = QuerySession(make_small_catalog(), num_workers=3).plan(SQL)
        assert (local.placement, local.num_workers) == ("local", 0)

    def test_spec_leaves_placement_to_binding(self):
        session = QuerySession(
            make_small_catalog(), placement="distributed", num_workers=2
        )
        plan = session.plan(SQL)
        spec = plan.to_spec(session.catalog.fingerprint())
        field_names = {f.name for f in dataclasses.fields(spec)}
        assert not field_names & {"placement", "num_workers"}
        back = session.planner.rehydrate(spec, SQL)
        assert (back.placement, back.num_workers) == ("distributed", 2)
        local = Planner(session.catalog).rehydrate(spec, SQL)
        assert (local.placement, local.num_workers) == ("local", 0)
        assert back.fingerprint() == local.fingerprint() == plan.fingerprint()

    def test_placement_choices_are_closed(self):
        assert PLACEMENT_CHOICES == ("local", "distributed")

    def test_knob_validation_at_construction(self):
        with pytest.raises(ValueError):
            QuerySession(make_small_catalog(), placement="remote")
        with pytest.raises(ValueError):
            QuerySession(make_small_catalog(), num_workers=-1)
