"""Catalog-level hash partitioning for the partitioned-layout tests.

The planner re-clusters one relation at a time
(:func:`repro.storage.partition.partitioned_relation`, cached per
relation token); these helpers apply it to every probe target of a
query at once, which is how the tests build a partitioned catalog to
compare against the merged one.
"""

from __future__ import annotations

from repro.storage.partition import partitioned_relation


def partition_replacements(catalog, query, num_shards, min_rows=0):
    """``{relation: PartitionedTable}`` for the query's shardable
    probe targets: :func:`partitioned_relation` of every non-root
    relation on its probe attribute (``edge.child_attr``), for those
    that re-cluster.  The driver is never partitioned (it is scanned,
    not probed).
    """
    replacements = {}
    for edge in query.edges:
        table = partitioned_relation(catalog.table(edge.child),
                                     edge.child_attr, num_shards, min_rows)
        if table is not None:
            replacements[edge.child] = table
    return replacements


def partitioned_catalog(catalog, query, num_shards):
    """A derived catalog with the query's probe targets hash-partitioned.

    See :func:`partition_replacements` for which relations shard;
    returns ``catalog`` itself when nothing does.
    """
    replacements = partition_replacements(catalog, query, num_shards)
    if not replacements:
        return catalog
    return catalog.derived_with(replacements)
