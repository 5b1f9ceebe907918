"""A two-relation build/probe workload for the partitioned-storage tests.

``driver.key`` probes ``build.key``: the build side draws uniform keys
from a domain a quarter of its row count (so keys repeat), and 10% of
the driver's probe keys fall outside the build keys' domain.
"""

from __future__ import annotations

import numpy as np

from repro.core import JoinEdge, JoinQuery
from repro.storage import Catalog


def scan_probe_catalog(driver_rows, build_rows, seed=0):
    """A two-relation catalog: ``driver`` probing into ``build``."""
    build_keys = (np.random.default_rng(seed).random(build_rows)
                  * max(build_rows // 4, 1)).astype(np.int64)
    domain = int(build_keys.max()) + 1 if build_rows else 1
    rng = np.random.default_rng(seed + 1)
    probe_keys = rng.integers(0, domain, driver_rows)
    probe_keys[rng.random(driver_rows) >= 0.9] += domain  # guaranteed misses
    catalog = Catalog()
    catalog.add_table("build", {
        "key": build_keys,
        "payload": np.arange(build_rows, dtype=np.int64),
    })
    catalog.add_table("driver", {
        "key": probe_keys.astype(np.int64),
        "id": np.arange(driver_rows, dtype=np.int64),
    })
    return catalog


def scan_probe_query():
    """``driver.key = build.key``, rooted at the driver."""
    return JoinQuery("driver", [JoinEdge("driver", "build", "key", "key")])
