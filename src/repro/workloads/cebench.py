"""Simulated CE-benchmark datasets (Section 5.3 substitution).

The paper evaluates on five CE-benchmark datasets (epinions, imdb,
watdiv, dblp, yago) whose defining property is *intermediate result
explosion due to many-to-many joins* on graph-structured data.  The
real datasets are not available offline, so this module generates
synthetic stand-ins with the same character: relations over shared
entity domains, foreign keys with Zipf-like skew (hot entities join
with thousands of partners, cold ones with none), and per-dataset
flavour parameters controlling size, skew and connectivity.  The
stand-ins reproduce that character, not the real datasets' sizes, so
Figure 12 reports runtimes relative to COM rather than absolute times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.query import JoinEdge, JoinQuery
from ..core.stats import stats_from_data
from ..storage.table import Catalog

__all__ = ["DatasetFlavor", "DATASET_FLAVORS", "CEDataset", "build_dataset"]


@dataclass(frozen=True)
class DatasetFlavor:
    """Generation parameters for one simulated CE dataset."""

    name: str
    #: entity domains: name -> cardinality at scale 1.0
    domains: tuple
    #: relations: (name, rows, ((column, domain), ...))
    relations: tuple
    #: Zipf skew exponent for key sampling (higher = more skew)
    zipf_a: float


def _rel(name, rows, *columns):
    return (name, rows, tuple(columns))


#: Five flavours loosely mirroring the real datasets' character:
#: epinions is small and dense, imdb larger with moderate skew, watdiv
#: structured with wide domains, dblp bibliographic, yago sparse but
#: very skewed.
DATASET_FLAVORS = {
    "epinions": DatasetFlavor(
        name="epinions",
        domains=(("user", 800), ("item", 500)),
        relations=(
            _rel("trusts", 6000, ("src", "user"), ("dst", "user")),
            _rel("rates", 7000, ("user", "user"), ("item", "item")),
            _rel("reviews", 5000, ("user", "user"), ("item", "item")),
            _rel("similar", 3000, ("src", "item"), ("dst", "item")),
            _rel("profiles", 800, ("user", "user"), ("segment", "item")),
        ),
        zipf_a=1.4,
    ),
    "imdb": DatasetFlavor(
        name="imdb",
        domains=(("movie", 2000), ("person", 3000), ("company", 400),
                 ("keyword", 600)),
        relations=(
            _rel("cast_info", 12000, ("person", "person"), ("movie", "movie")),
            _rel("movie_companies", 5000, ("movie", "movie"),
                 ("company", "company")),
            _rel("movie_keyword", 9000, ("movie", "movie"),
                 ("keyword", "keyword")),
            _rel("person_roles", 8000, ("person", "person"),
                 ("keyword", "keyword")),
            _rel("complete_cast", 4000, ("movie", "movie"),
                 ("person", "person")),
            _rel("company_films", 3500, ("company", "company"),
                 ("movie", "movie")),
        ),
        zipf_a=1.2,
    ),
    "watdiv": DatasetFlavor(
        name="watdiv",
        domains=(("product", 1500), ("retailer", 300), ("customer", 2500),
                 ("topic", 200)),
        relations=(
            _rel("purchases", 10000, ("customer", "customer"),
                 ("product", "product")),
            _rel("offers", 6000, ("retailer", "retailer"),
                 ("product", "product")),
            _rel("likes", 8000, ("customer", "customer"), ("topic", "topic")),
            _rel("tagged", 4000, ("product", "product"), ("topic", "topic")),
            _rel("follows", 7000, ("src", "customer"), ("dst", "customer")),
            _rel("storefronts", 900, ("retailer", "retailer"),
                 ("topic", "topic")),
        ),
        zipf_a=1.0,
    ),
    "dblp": DatasetFlavor(
        name="dblp",
        domains=(("author", 2500), ("paper", 4000), ("venue", 150)),
        relations=(
            _rel("writes", 11000, ("author", "author"), ("paper", "paper")),
            _rel("cites", 14000, ("src", "paper"), ("dst", "paper")),
            _rel("published_in", 4000, ("paper", "paper"), ("venue", "venue")),
            _rel("coauthor", 9000, ("src", "author"), ("dst", "author")),
            _rel("editor_of", 600, ("author", "author"), ("venue", "venue")),
        ),
        zipf_a=1.3,
    ),
    "yago": DatasetFlavor(
        name="yago",
        domains=(("entity", 5000), ("type", 250), ("place", 700)),
        relations=(
            _rel("is_a", 9000, ("entity", "entity"), ("type", "type")),
            _rel("located_in", 6000, ("entity", "entity"), ("place", "place")),
            _rel("linked_to", 13000, ("src", "entity"), ("dst", "entity")),
            _rel("near", 2500, ("src", "place"), ("dst", "place")),
            _rel("subclass_of", 1200, ("src", "type"), ("dst", "type")),
        ),
        zipf_a=1.6,
    ),
}


def _zipf_keys(rng, domain_size, num_rows, zipf_a):
    """Sample ``num_rows`` keys from [0, domain_size) with Zipf skew."""
    ranks = np.arange(1, domain_size + 1, dtype=np.float64)
    weights = ranks ** (-zipf_a)
    weights /= weights.sum()
    values = rng.choice(domain_size, size=num_rows, p=weights)
    # Randomize which concrete ids are "hot" so that different columns
    # over the same domain are not trivially correlated.
    permutation = rng.permutation(domain_size)
    return permutation[values].astype(np.int64)


class CEDataset:
    """A generated dataset: catalog + schema metadata + query sampler."""

    def __init__(self, flavor, catalog, column_domains):
        self.flavor = flavor
        self.name = flavor.name
        self.catalog = catalog
        #: (relation, column) -> domain name
        self.column_domains = column_domains

    def _domains_of(self, relation):
        return {
            column: domain
            for (rel, column), domain in self.column_domains.items()
            if rel == relation
        }

    def random_query(self, num_relations=4, seed=0, max_expected_output=None,
                     min_probe_ratio=None):
        """A random acyclic query over distinct relations of the dataset.

        Grows a join tree by repeatedly attaching an unused relation to
        a joined one through a shared entity domain.  If
        ``max_expected_output`` is given, rejection-samples until the
        expected flat output (per measured stats) is under the cap —
        mirroring the paper's result-size filter (<= 1e10).

        ``min_probe_ratio`` additionally requires *redundant-probe
        potential*: the ratio of predicted STD probes to predicted COM
        probes (under the survival-heuristic order) must reach the
        threshold.  This selects exactly the query class the CE
        benchmark was built to exhibit — many-to-many joins whose
        intermediates explode with redundant work.
        """
        rng = np.random.default_rng(seed)
        for attempt in range(300):
            query = self._grow_query(rng, num_relations)
            if query is None:
                continue
            if max_expected_output is None and min_probe_ratio is None:
                return query
            stats = stats_from_data(self.catalog, query)
            expected = stats.driver_size
            for relation in query.non_root_relations:
                expected *= stats.selectivity(relation)
            if max_expected_output is not None and expected > max_expected_output:
                continue
            if min_probe_ratio is not None:
                if self._probe_ratio(query, stats) < min_probe_ratio:
                    continue
            return query
        raise RuntimeError(
            f"could not sample a query with expected output under "
            f"{max_expected_output} (probe ratio >= {min_probe_ratio}) "
            f"after 300 attempts on {self.name!r}"
        )

    @staticmethod
    def _probe_ratio(query, stats):
        """Predicted STD/COM probe ratio under the survival order."""
        from ..core.costmodel import com_probes_per_join, std_probes_per_join
        from ..core.optimizer import greedy_order

        order = greedy_order(query, stats, "survival").order
        std = sum(std_probes_per_join(query, stats, order).values())
        com = sum(com_probes_per_join(query, stats, order).values())
        return std / max(com, 1e-9)

    def _grow_query(self, rng, num_relations):
        relations = list(self.catalog.table_names)
        driver = relations[int(rng.integers(len(relations)))]
        used = {driver}
        edges = []
        while len(used) < num_relations:
            candidates = []
            for parent in used:
                for p_col, domain in self._domains_of(parent).items():
                    for other in relations:
                        if other in used:
                            continue
                        for o_col, o_domain in self._domains_of(other).items():
                            if o_domain == domain:
                                candidates.append((parent, p_col, other, o_col))
            if not candidates:
                return None
            parent, p_col, child, c_col = candidates[
                int(rng.integers(len(candidates)))
            ]
            edges.append(JoinEdge(parent, child, p_col, c_col))
            used.add(child)
        return JoinQuery(driver, edges)

    def random_queries(self, num_queries=10, size_range=(4, 5), seed=0,
                       max_expected_output=2_000_000.0, min_probe_ratio=None):
        """The per-dataset query workload of Section 5.3."""
        rng = np.random.default_rng(seed)
        queries = []
        attempts = 0
        while len(queries) < num_queries:
            attempts += 1
            size = int(rng.integers(size_range[0], size_range[1] + 1))
            query_seed = int(rng.integers(2**31))
            ratio = min_probe_ratio if attempts <= 5 * num_queries else None
            try:
                queries.append(
                    self.random_query(
                        num_relations=size,
                        seed=query_seed,
                        max_expected_output=max_expected_output,
                        min_probe_ratio=ratio,
                    )
                )
            except RuntimeError:
                continue
        return queries


def build_dataset(name, scale=1.0, seed=0):
    """Generate one simulated CE dataset by flavour name."""
    try:
        flavor = DATASET_FLAVORS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: "
            f"{sorted(DATASET_FLAVORS)}"
        ) from None
    rng = np.random.default_rng(seed)
    domain_sizes = {
        domain: max(2, int(round(size * scale)))
        for domain, size in flavor.domains
    }
    catalog = Catalog()
    column_domains = {}
    for rel_name, rows, columns in flavor.relations:
        num_rows = max(2, int(round(rows * scale)))
        data = {}
        for column, domain in columns:
            data[column] = _zipf_keys(
                rng, domain_sizes[domain], num_rows, flavor.zipf_a
            )
            column_domains[(rel_name, column)] = domain
        data["payload"] = np.arange(num_rows, dtype=np.int64)
        catalog.add_table(rel_name, data)
    return CEDataset(flavor, catalog, column_domains)
