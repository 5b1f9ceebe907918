"""Workload generator for partitioned-storage experiments.

Produces the build/probe shapes the sharding benchmark and tests
exercise: one large build relation with a (optionally skewed) integer
join key, and probe-key batches with a controllable hit rate.  Scaled
down, the same generator drives the property tests comparing
partitioned and unpartitioned execution.
"""

from __future__ import annotations

import numpy as np

from ..core.query import JoinEdge, JoinQuery
from ..storage.table import Catalog, Table

__all__ = [
    "probe_batch",
    "scan_build_table",
    "scan_probe_catalog",
    "scan_probe_query",
]


def scan_build_table(rows, key_domain=None, skew=0.0, seed=0, name="build"):
    """A build-side relation: ``key`` (join key) plus a payload column.

    ``skew`` in [0, 1) biases keys toward the low end of the domain via
    a power law (0 = uniform), modelling the heavy-hitter keys that
    make monolithic index builds slow.
    """
    rng = np.random.default_rng(seed)
    if key_domain is None:
        key_domain = max(rows // 4, 1)
    uniform = rng.random(rows)
    if skew > 0.0:
        uniform = uniform ** (1.0 / (1.0 - skew))
    keys = (uniform * key_domain).astype(np.int64)
    return Table(name, {
        "key": keys,
        "payload": np.arange(rows, dtype=np.int64),
    })


def probe_batch(num_probes, key_domain, hit_rate=0.9, seed=1):
    """Probe keys; a ``1 - hit_rate`` fraction drawn outside the domain."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_domain, num_probes)
    misses = rng.random(num_probes) >= hit_rate
    keys[misses] += key_domain  # guaranteed out-of-domain
    return keys.astype(np.int64)


def scan_probe_catalog(driver_rows, build_rows, key_domain=None, skew=0.0,
                       hit_rate=0.9, seed=0):
    """A two-relation catalog: ``driver`` probing into ``build``."""
    build = scan_build_table(build_rows, key_domain=key_domain, skew=skew,
                             seed=seed)
    domain = int(build.column("key").max()) + 1 if build_rows else 1
    catalog = Catalog()
    catalog.add(build)
    catalog.add_table("driver", {
        "key": probe_batch(driver_rows, domain, hit_rate=hit_rate,
                           seed=seed + 1),
        "id": np.arange(driver_rows, dtype=np.int64),
    })
    return catalog


def scan_probe_query():
    """``driver.key = build.key``, rooted at the driver."""
    return JoinQuery("driver", [JoinEdge("driver", "build", "key", "key")])
