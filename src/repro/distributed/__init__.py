"""Distributed shard placement and scatter/gather execution.

See :mod:`repro.distributed.placement` for the shard-to-worker policy
and :mod:`repro.distributed.workerpool` for the persistent worker
processes and the scatter/gather data path.  The subsystem sits behind
the ``placement="local"|"distributed"`` planner/session knob; results
and :class:`~repro.engine.executor.ExecutionCounters` are bit-identical
to single-process execution by construction (property-tested in
``tests/properties/test_prop_distributed.py``).
"""
