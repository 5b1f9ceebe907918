"""The distributed hang this benchmark's watchdog was built for.

``QuerySession(partitioning=8, placement="distributed", num_workers=2)``
hangs on >= 16 384 probe keys per batch on hosts with more than one
core: the parent starts ``storage/partition.py``'s shared thread pool,
the worker processes are forked with the pool object but none of its
threads, and the first worker-side ``_parallel_map`` never returns.
The PR that fixes it flips this test (delete the ``xfail``).
"""

import os
import subprocess
import sys
import textwrap

import pytest
from conftest import E2E, ROOT

REPRO = textwrap.dedent("""
    import numpy as np
    import gen
    from repro import Catalog, QuerySession

    tables = gen._four_relations(np.random.default_rng(0), 18_000, 12_000,
                                 9_000)
    catalog = Catalog()
    for name, columns in tables.items():
        catalog.add_table(name, columns)
    session = QuerySession(catalog, partitioning=8, placement="distributed",
                           num_workers=2)
    report = session.execute(gen._three_class_pool()[2].sql())
    session.close()
    assert report.ok, report.error
""")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one-core hosts take the serial branch")
@pytest.mark.xfail(reason="forked workers inherit a thread pool without "
                          "threads (storage/partition.py); see README",
                   strict=False)
def test_distributed_session_above_the_parallel_threshold_completes():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(E2E)]))
    process = subprocess.Popen([sys.executable, "-c", REPRO], env=env,
                               start_new_session=True)
    try:
        assert process.wait(timeout=15) == 0
    finally:
        try:
            os.killpg(process.pid, 9)      # the hung workers too
        except ProcessLookupError:
            pass
        process.wait()
