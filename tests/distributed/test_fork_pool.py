"""A partitioned distributed session survives forking its workers.

Worker processes are forked after the parent has planned and probed
the partitioned catalog.  Whatever process-wide state the parent built
while doing so travels into the children, so a child that inherits a
thread pool without its threads, or a lock held by a thread that no
longer exists, waits forever on its first large batch.  The storage
layer keeps no such state (``tools/check_invariants.py`` forbids
module-level executors); this scenario pins the symptom.  It runs in a
subprocess under a hard timeout: a regression is a hang, not an
exception.
"""

import os
import subprocess
import sys
import textwrap

from tests.helpers import subprocess_env

SCENARIO = textwrap.dedent("""
    import numpy as np
    from repro import Catalog, QuerySession

    rows = 49_152                   # 3 x 16 384: every worker's probe
    catalog = Catalog()             # batch stays above 16 384 keys
    catalog.add_table("R", {"k": np.arange(rows) % (rows // 2)})
    catalog.add_table("S", {"k": np.arange(rows // 2)})
    session = QuerySession(catalog, partitioning=8,
                           placement="distributed", num_workers=2)
    report = session.execute("select * from R, S where R.k = S.k")
    session.close()
    assert report.ok, report.error
    assert report.workers_used == 2
    assert report.shards_used == 8
    assert report.result.output_size == rows
""")


def test_partitioned_distributed_session_above_16384_keys_completes():
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
