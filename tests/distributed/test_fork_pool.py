"""Forked workers must not inherit the parent's shard thread pool.

``storage/partition.py`` keeps one lazily created thread pool per
process.  Worker processes are forked after the parent has used its
pool (statistics derivation probes the sharded indexes), so the child
used to see a pool object whose threads did not survive the fork and
hung on its first above-threshold ``_parallel_map``.  The scenario runs
in a subprocess under a hard timeout: a regression is a hang, not an
exception.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from tests.helpers import subprocess_env

SCENARIO = textwrap.dedent("""
    import numpy as np
    from repro import Catalog, QuerySession
    from repro.storage import partition

    rows = 3 * partition.PARALLEL_MIN_KEYS      # per-worker batches stay
    catalog = Catalog()                         # above the threshold
    catalog.add_table("R", {"k": np.arange(rows) % (rows // 2)})
    catalog.add_table("S", {"k": np.arange(rows // 2)})
    session = QuerySession(catalog, partitioning=8,
                           placement="distributed", num_workers=2)
    report = session.execute("select * from R, S where R.k = S.k")
    session.close()
    assert partition._pool is not None, "parent never started its pool"
    assert report.ok, report.error
    assert report.workers_used == 2
    assert report.result.output_size == rows
""")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one-core hosts take the serial branch")
def test_forked_workers_start_their_own_shard_pool():
    process = subprocess.Popen([sys.executable, "-c", SCENARIO],
                               env=subprocess_env(), start_new_session=True)
    try:
        assert process.wait(timeout=60) == 0
    finally:
        try:
            os.killpg(process.pid, 9)      # hung workers too
        except ProcessLookupError:
            pass
        process.wait()
