"""The repo-invariant linter: green on the repo, loud on violations.

Each rule is exercised twice — once against the real tree (must hold)
and once against a synthetic violation written into a temp tree (must
fire), so the linter can neither rot into false positives nor silently
stop catching the pattern it exists for.
"""

import ast
import re
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from tests.helpers import subprocess_env

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "tools" / "check_invariants.py"


HASH_INDEX_SOURCE = (
    "__all__ = ['HashIndex']\n"
    "_LIMIT = 2**62\n"
    "class HashIndex:\n"
    "    def __init__(self, keys, rows=None):\n"
    "        self.size = len(keys)\n"
)


#: the one function reading ``Catalog.version`` (ONE_RECLAIM_GATE)
RECLAIM_GATE = (
    "def reclaim(planner):\n"
    "    return planner.catalog.version\n"
)


#: the named targets of the rules scoped to a file, class or method, by
#: module; :func:`write` keeps them beside what a test writes there
TARGETS = {
    "planner.py": (
        "def decide(query, reader, options):\n"
        "    return query\n"
        "def filtered_table(table, alias, predicate):\n"
        "    return table.renamed(alias)\n"
        "class PlanSpec:\n"
        "    root: str = _spec_field('anchor')\n"
        "class PhysicalPlan:\n"
        "    def fingerprint(self):\n"
        "        return digest(self.spec)\n"
        "class Planner:\n"
        "    def _apply_partitioning(self, prep, join_query):\n"
        "        return prep.catalog\n"
    ),
    "service/session.py": (
        "class QuerySession:\n"
        "    def __init__(self, catalog):\n"
        "        self.catalog = catalog\n"
        "    def _key(self, query):\n"
        "        return query\n"
        "class PreparedStatement:\n"
        "    def _structural_plan(self):\n"
        "        return self.parsed\n"
    ),
    "service/async_service.py": (
        "class AsyncQueryService:\n"
        "    def __init__(self, session):\n"
        "        self.session = session\n"
    ),
    "engine/wcoj.py": (
        "def execute_wcoj(catalog, plan, binding_sequence):\n"
        "    return catalog.table_structure(plan, binding_sequence)\n"
    ),
    "core/optimizer.py": (
        "def _exact_block_order(memo, block):\n"
        "    return block\n"
        "def _greedy_block(memo, block):\n"
        "    return block\n"
        "def beam_order(memo, beam_width):\n"
        "    return beam_width\n"
    ),
    "core/costmodel.py": "class CostMemo:\n    bit = None\n",
}


def write(repo, relative, source):
    """Write ``source`` as ``src/repro/<relative>``, that module's
    :data:`TARGETS` appended: a test trips one rule, not the others'
    target checks (its own lines keep their numbers)."""
    path = repo / "src" / "repro" / relative
    path.parent.mkdir(exist_ok=True)
    path.write_text(source + TARGETS.get(relative, ""))
    return path


def load_linter(repo_root, exempt=None):
    """Import the linter module rebased onto ``repo_root``.

    A synthetic tree lints under the knob exemptions ``exempt`` (default
    none): the real ``PLAN_KNOBS_EXEMPT`` names this repository's knobs,
    and in a tree that lacks them each would be a stale exemption.
    """
    spec = importlib.util.spec_from_file_location(
        "check_invariants_under_test", SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.REPO = Path(repo_root)
    module.SRC = Path(repo_root) / "src" / "repro"
    if Path(repo_root) != REPO:
        module.PLAN_KNOBS_EXEMPT = dict(exempt or {})
    return module


@pytest.fixture()
def synthetic_repo(tmp_path):
    """A minimal tree the linter accepts, ready to be corrupted."""
    src = tmp_path / "src" / "repro"
    for sub in ("engine", "storage", "core", "analysis"):
        (src / sub).mkdir(parents=True)
        (src / sub / "__init__.py").write_text("")
    (src / "__init__.py").write_text("")
    (src / "engine" / "kernels.py").write_text(
        "class VectorizedKernels:\n"
        "    def lookup(self, index, keys):\n"
        "        return index\n"
        "class InterpretedKernels:\n"
        "    def lookup(self, index, keys):\n"
        "        return index\n"
    )
    (src / "storage" / "hashindex.py").write_text(HASH_INDEX_SOURCE)
    (src / "options.py").write_text(
        "class PlanOptions:\n"
        "    mode: str = 'auto'\n"
        + RECLAIM_GATE
    )
    (tmp_path / "README.md").write_text(
        "## Planner / session knobs\n\n"
        "| knob |\n|---|\n| `mode` |\n\n## Next\n"
    )
    (src / "service").mkdir()
    (src / "service" / "__init__.py").write_text("")
    for relative in TARGETS:
        write(tmp_path, relative, "")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "targets.py").write_text("".join(
        f"import repro.{relative[:-3].replace('/', '.')}\n"
        for relative in TARGETS))
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.engine.kernels import VectorizedKernels\n"
        "from repro.options import PlanOptions\n"
        "from repro.storage.hashindex import HashIndex\n"
        "options = PlanOptions(mode='auto')\n"
    )
    return tmp_path


def run_all(module):
    """Every rule's findings but those read off the roots and the
    one-gate count: the modules the tests below write to trip one rule
    are reached by no root, and some overwrite ``options.py``, which
    holds the fixture's reclaim gate; the reachability and gate tests
    pin those rules on their own."""
    whole_tree = (module.check_product_modules_reachable,
                  module.check_package_exports_requested,
                  module.check_plan_knobs_used,
                  module.check_one_reclaim_gate)
    return [finding for check in module.CHECKS if check not in whole_tree
            for finding in check()]


def unreached(module):
    return [str(f.path) for f in module.check_product_modules_reachable()]


def test_linter_green_on_this_repo():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)],
        cwd=REPO, capture_output=True, text=True, env=subprocess_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "invariants hold" in result.stdout


def test_synthetic_repo_is_green(synthetic_repo):
    module = load_linter(synthetic_repo)
    assert [finding for check in module.CHECKS for finding in check()] == []


def test_raw_key_eq_fires(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "engine" / "probe.py"
    path.write_text(
        "def find(build_key, probe):\n"
        "    return build_key == probe\n"
    )
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["RAW_KEY_EQ"]


def test_raw_key_eq_nan_idiom_allowed(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "engine" / "probe.py"
    path.write_text(
        "def is_nan(key):\n"
        "    return key != key\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


def test_unlocked_cache_mutation_fires_on_foreign_access(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "core" / "peek.py"
    path.write_text(
        "def peek(cache):\n"
        "    return list(cache._entries)\n"
    )
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["UNLOCKED_CACHE_MUTATION"]


def test_unlocked_cache_mutation_fires_without_lock(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "core" / "cachelike.py"
    path.write_text(
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._entries = {}\n"
        "    def size_unlocked(self):\n"
        "        return len(self._entries)\n"
        "    def size_locked(self):\n"
        "        with self._lock:\n"
        "            return len(self._entries)\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["UNLOCKED_CACHE_MUTATION"]
    assert "size_unlocked" in findings[0].message


def test_unsorted_fingerprint_iter_fires(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "core" / "digest.py"
    path.write_text(
        "def fingerprint(mapping):\n"
        "    return tuple(mapping.items())\n"
    )
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["UNSORTED_FINGERPRINT_ITER"]


def test_unsorted_fingerprint_iter_accepts_sorted(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "core" / "digest.py"
    path.write_text(
        "def fingerprint(mapping, tags):\n"
        "    keep = {t for t in tags}\n"  # membership only: fine
        "    return tuple(sorted(mapping.items())), keep\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


def test_unsorted_fingerprint_iter_fires_on_iterated_set(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "core" / "digest.py"
    path.write_text(
        "def cache_key(tags):\n"
        "    return tuple({t for t in tags})\n"
    )
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["UNSORTED_FINGERPRINT_ITER"]


def test_kernel_surface_fires_on_missing_method(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "engine" / "kernels.py"
    path.write_text(
        "class VectorizedKernels:\n"
        "    def lookup(self, index, keys):\n"
        "        return index\n"
        "    def gather(self, rows):\n"
        "        return rows\n"
        "class InterpretedKernels:\n"
        "    def lookup(self, index, keys):\n"
        "        return index\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["KERNEL_SURFACE"]
    assert "gather" in findings[0].message


def test_kernel_surface_fires_on_counter_mismatch(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "engine" / "kernels.py"
    path.write_text(
        "class VectorizedKernels:\n"
        "    def lookup(self, index, keys):\n"
        "        self.counters.probes += 1\n"
        "class InterpretedKernels:\n"
        "    def lookup(self, index, keys):\n"
        "        return index\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["KERNEL_SURFACE"]
    assert "counter updates differ" in findings[0].message


def test_readme_knob_table_fires_on_undocumented_knob(synthetic_repo):
    path = synthetic_repo / "src" / "repro" / "options.py"
    path.write_text(
        "class PlanOptions:\n"
        "    mode: str = 'auto'\n"
        "    shiny: str = 'off'\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["README_KNOB_TABLE"]
    assert "`shiny`" in findings[0].message


def test_readme_knob_table_fires_on_a_row_for_no_knob(synthetic_repo):
    """A row left behind by a deleted knob documents an option that
    raises; a row for a session-only keyword is a knob."""
    (synthetic_repo / "README.md").write_text(
        "## Planner / session knobs\n\n"
        "| knob | default |\n|---|---|\n| `mode` | `auto` |\n"
        "| `plan_cache_size` | `128` |\n| `retired`, `mode` | `16` |\n\n"
        "## Next\n"
    )
    write(synthetic_repo, "service/session.py",
          "class QuerySession:\n"
          "    def __init__(self, catalog, plan_cache_size=128, **knobs):\n"
          "        self.catalog = catalog\n")
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["README_KNOB_TABLE"]
    assert "`retired`" in findings[0].message
    assert str(findings[0]).startswith("README.md:7:")


def _hash_index_path(repo):
    return repo / "src" / "repro" / "storage" / "hashindex.py"


def test_index_layout_selector_fires_on_constructor_flag(synthetic_repo):
    _hash_index_path(synthetic_repo).write_text(HASH_INDEX_SOURCE.replace(
        "rows=None", "rows=None, layout='auto'"
    ))
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["INDEX_LAYOUT_SELECTOR"]
    assert "layout" in findings[0].message


def test_index_layout_selector_fires_on_public_constant(synthetic_repo):
    _hash_index_path(synthetic_repo).write_text(
        HASH_INDEX_SOURCE + "DENSE_MAX_SPAN_RATIO = 6\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["INDEX_LAYOUT_SELECTOR"]
    assert "DENSE_MAX_SPAN_RATIO" in findings[0].message


def test_index_layout_selector_fires_on_environment(synthetic_repo):
    _hash_index_path(synthetic_repo).write_text(
        "import os\n" + HASH_INDEX_SOURCE
    )
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["INDEX_LAYOUT_SELECTOR"]


def test_index_layout_selector_fires_on_second_probe_structure(
        synthetic_repo):
    (synthetic_repo / "src" / "repro" / "storage" / "partition.py").write_text(
        "class ShardedHashIndex:\n"
        "    def lookup(self, keys):\n"
        "        return keys\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["INDEX_LAYOUT_SELECTOR"]
    assert "ShardedHashIndex" in findings[0].message


@pytest.mark.parametrize("source, named", [
    # a lazily created process-wide pool behind a `global` rebinding
    ("import threading\n"
     "from concurrent.futures import ThreadPoolExecutor\n"
     "_pool = None\n"
     "_pool_lock = threading.Lock()\n"
     "def _shared_pool():\n"
     "    global _pool\n"
     "    if _pool is None:\n"
     "        with _pool_lock:\n"
     "            if _pool is None:\n"
     "                _pool = ThreadPoolExecutor(max_workers=4)\n"
     "    return _pool\n", "_pool"),
    # a pool created at import time
    ("import concurrent.futures\n"
     "POOL = concurrent.futures.ProcessPoolExecutor(max_workers=2)\n",
     "POOL"),
    # an aliased import, annotated binding
    ("from concurrent.futures import ThreadPoolExecutor as Pool\n"
     "_workers: object = Pool()\n", "_workers"),
], ids=["global_rebinding", "import_time", "aliased_annotated"])
def test_no_module_executor_fires(synthetic_repo, source, named):
    (synthetic_repo / "src" / "repro" / "core" / "pools.py").write_text(source)
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["NO_MODULE_EXECUTOR"]
    assert repr(named) in findings[0].message


def test_no_module_executor_allows_owned_pools(synthetic_repo):
    (synthetic_repo / "src" / "repro" / "core" / "pools.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "_planner = None\n"
        "def _init(planner):\n"
        "    global _planner\n"
        "    _planner = planner\n"
        "    local = ThreadPoolExecutor()\n"
        "    local.shutdown()\n"
        "class Service:\n"
        "    def __init__(self):\n"
        "        self._executor = ThreadPoolExecutor(max_workers=2)\n"
        "    def close(self):\n"
        "        self._executor.shutdown()\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("relative, source", [
    ("core/sidecar.py",
     "def measure(index, keys):\n    return index.probe_stats(keys)\n"),
    ("service/sidecar.py",
     "def sample(a, b):\n    return CorrelatedSample(a, b, 'x', 'x')\n"),
    # planning measures exactly: the stats producer samples no more
    ("core/stats.py",
     "def sample(a, b):\n    return CorrelatedSample(a, b, 'x', 'x')\n"),
    ("storage/partition.py",
     "def sample(a, b):\n    return CorrelatedSample(a, b, 'x', 'x')\n"),
    ("planner.py", "def guess():\n    return EdgeStats(m=1.0, fo=1.0)\n"),
])
def test_stats_single_producer_fires(synthetic_repo, relative, source):
    path = synthetic_repo / "src" / "repro" / relative
    path.parent.mkdir(exist_ok=True)
    write(synthetic_repo, relative, source)
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["STATS_SINGLE_PRODUCER"]


@pytest.mark.parametrize("relative, samples", [
    ("core/stats.py", False), ("storage/partition.py", False),
    ("estimation/sampling.py", True), ("bench/fig04.py", True),
])
def test_stats_single_producer_exempts_the_producers(synthetic_repo,
                                                     relative, samples):
    """``probe_stats`` is called by the stats producer and the storage
    layer; estimators are also sampled where they are evaluated."""
    path = synthetic_repo / "src" / "repro" / relative
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        "def measure(index, keys, a, b):\n"
        + ("    CorrelatedSample(a, b, 'x', 'x')\n" if samples else "")
        + "    return index.probe_stats(keys)\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("source", [
    # the three shapes the rule replaced: a nested floor closure, a
    # floor lambda handed to _search, a floor term priced in place
    "def plan(self):\n    def floor(rooted, stats, mode):\n"
    "        return 0.0\n    return floor\n",
    "def plan(self, slack):\n"
    "    return self._search([], floor=lambda *_: slack)\n",
    "def plan(self, size):\n"
    "    return size * self.options.weights.tuple_generation\n",
])
def test_cost_floor_single_producer_fires(synthetic_repo, source):
    write(synthetic_repo, "planner.py", source)
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["COST_FLOOR_SINGLE_PRODUCER"]


def test_cost_floor_single_producer_allows_the_producer(synthetic_repo):
    write(synthetic_repo, "planner.py",
        "def search(rooted, stats, mode, weights, partition_floor):\n"
        "    return order_invariant_floor(rooted, stats, mode, weights)\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


def test_hash_index_has_no_layout_selector():
    """The same contract, checked on the live class: the constructor
    signature is the documented one and nothing public on the module or
    the class names a layout."""
    import inspect

    from repro.storage import hashindex
    from repro.storage.hashindex import HashIndex

    assert list(inspect.signature(HashIndex.__init__).parameters) == [
        "self", "keys", "rows"
    ]
    public = [name for name in vars(hashindex)
              if not name.startswith("_") and name not in hashindex.__all__
              and name not in ("annotations", "np")]
    assert public == []
    selectors = [name for name in dir(HashIndex)
                 if not name.startswith("_")
                 and any(word in name.lower()
                         for word in ("layout", "dense", "sorted"))]
    assert selectors == []


PLANNER_SOURCE = (
    "class PlanSpec(_RoleDeclared):\n"
    "    root: str = _spec_field('anchor')\n"
    "    order: tuple = _spec_field('decision', tuple)\n"
    "    stats: object = _spec_field('derived')\n"
    "class PhysicalPlan:\n"
    "    spec: PlanSpec\n"
    "    def fingerprint(self):\n"
    "        payload = (self.spec.root, *decided(self.spec))\n"
    "        return repr(payload)\n"
)


def test_plan_field_single_declaration_allows_declared_fields(
        synthetic_repo):
    write(synthetic_repo, "planner.py", PLANNER_SOURCE)
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("relative, source, named", [
    # a field without a role
    ("planner.py", PLANNER_SOURCE.replace(
        "    stats: object = _spec_field('derived')\n",
        "    stats: object = _spec_field('derived')\n"
        "    shiny: int = 0\n"), "PlanSpec.shiny"),
    # a role that is not one of the three
    ("planner.py", PLANNER_SOURCE.replace("'derived'", "'observed'"),
     "PlanSpec.stats"),
    # a binding fact declared as a decision
    ("planner.py", PLANNER_SOURCE.replace(
        "    stats: object = _spec_field('derived')\n",
        "    stats: object = _spec_field('derived')\n"
        "    execution: str = _spec_field('decision', default='auto')\n"),
     "PlanSpec.execution is a binding fact"),
    # the hand-written fingerprint payload
    ("planner.py", PLANNER_SOURCE.replace(
        "return repr(payload)",
        "return repr((self.spec.root, self.spec.order))"), "repr((...))"),
    # a second registry of plan fields beside the declaration
    ("analysis/registry.py",
     "COVERED = frozenset({'order', 'root'})\n", "['order', 'root']"),
])
def test_plan_field_single_declaration_fires(synthetic_repo, relative,
                                             source, named):
    planner = synthetic_repo / "src" / "repro" / "planner.py"
    write(synthetic_repo, "planner.py", PLANNER_SOURCE)
    write(synthetic_repo, relative, source)
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["PLAN_FIELD_SINGLE_DECLARATION"]
    assert named in findings[0].message


WCOJ_PLANNER_SOURCE = (
    "def plan(self, classes, distincts, sizes, trees):\n"
    "    order = plan_variable_order(classes, distincts)\n"
    "    price = wcoj_cost(order, distincts, sizes)\n"
    "    return [self._search(tree, price) for tree in trees]\n"
)


def test_wcoj_priced_once_allows_one_pricing(synthetic_repo):
    write(synthetic_repo, "planner.py", WCOJ_PLANNER_SOURCE)
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("source, named", [
    # a second, post-sweep pricing (the arbitration re-prices)
    (WCOJ_PLANNER_SOURCE.replace(
        "    return", "    again = wcoj_cost(order, distincts, sizes)\n"
                     "    return"), "wcoj_cost"),
    # a forced-wcoj fork with its own variable order
    (WCOJ_PLANNER_SOURCE.replace(
        "    return", "    forced = plan_variable_order(classes, {})\n"
                     "    return"), "plan_variable_order"),
    # imported but never priced
    ("from .engine.wcoj import plan_variable_order\n"
     "def plan(self, classes, distincts, sizes):\n"
     "    return wcoj_cost(classes, distincts, sizes)\n",
     "plan_variable_order"),
])
def test_wcoj_priced_once_fires(synthetic_repo, source, named):
    write(synthetic_repo, "planner.py", source)
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["WCOJ_PRICED_ONCE"]
    assert findings[0].message.startswith(named)


def _write_wcoj(repo, body):
    write(repo, "engine/wcoj.py",
        "import numpy as np\n"
        "def _build_chain(table, binding):\n"
        "    codes = np.unique(table)\n"
        "    return HashIndex(np.searchsorted(codes, table))\n"
        "def execute_wcoj(catalog, plan, binding_sequence):\n" + body
    )


def test_wcoj_build_once_allows_cached_builders(synthetic_repo):
    _write_wcoj(synthetic_repo,
                "    return {rel: catalog.table_structure(\n"
                "        rel, ('wcoj.chain', binding),\n"
                "        lambda table: _build_chain(table, binding))\n"
                "        for rel, binding in binding_sequence}\n")
    assert run_all(load_linter(synthetic_repo)) == []


def test_wcoj_build_once_fires_on_per_execution_build(synthetic_repo):
    # the phase-B loop that rebuilt every chain index per execution
    _write_wcoj(synthetic_repo,
                "    row_groups = {}\n"
                "    for rel, attr in binding_sequence:\n"
                "        codes_per_row = row_groups[rel] * 4 + ranks[attr]\n"
                "        codes = np.unique(codes_per_row)\n"
                "        row_groups[rel] = np.searchsorted(codes, "
                "codes_per_row)\n"
                "    return {rel: HashIndex(groups)\n"
                "            for rel, groups in row_groups.items()}\n")
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["WCOJ_BUILD_ONCE"] * 3
    assert [f.message.split("(")[0] for f in findings] == [
        "unique", "searchsorted", "HashIndex"]


@pytest.mark.parametrize("relative, source", [
    # the deleted run-time read: a path assembled from a record name
    ("core/profile.py",
     "from pathlib import Path\n"
     "RECORD = Path(__file__).parents[3] / 'benchmarks' / 'results' / "
     "'BENCH_optimizer_scaling.json'\n"),
    # the results directory spelled as one path
    ("options.py", "class PlanOptions:\n    mode: str = 'auto'\n"
     "def limits():\n    return open('benchmarks/results/x.json').read()\n"),
    # a record name inside an f-string
    ("service/tuning.py",
     "def record(name):\n    return f'BENCH_{name}.json'\n"),
])
def test_product_reads_no_benchmark_files_fires(synthetic_repo, relative,
                                                source):
    path = synthetic_repo / "src" / "repro" / relative
    path.parent.mkdir(exist_ok=True)
    write(synthetic_repo, relative, source)
    rules = [f.rule for f in run_all(load_linter(synthetic_repo))]
    assert rules == ["PRODUCT_READS_NO_BENCHMARK_FILES"]


def test_product_reads_no_benchmark_files_exempts_docstrings(synthetic_repo):
    write(synthetic_repo, "core/optimizer.py",
        '"""Crossovers once measured into benchmarks/results/."""\n'
        "def choose(n):\n"
        '    """Not read from BENCH_optimizer_scaling.json."""\n'
        "    return 'exhaustive' if n <= 12 else 'idp'\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


def test_one_fanout_per_step_allows_lineage_gathers(synthetic_repo):
    src = synthetic_repo / "src" / "repro"
    (src / "engine" / "factorized.py").write_text(
        "def _expand_batch(self, driver_entries, levels, kernels):\n"
        "    frame = {self.query.root: driver_entries}\n"
        "    for relation, parent, entries, starts, counts in levels:\n"
        "        lineage, positions = kernels.fan_out(\n"
        "            starts.take(frame[parent]), counts.take(frame[parent]))\n"
        "        frame = {rel: column.take(lineage)\n"
        "                 for rel, column in frame.items()}\n"
        "        frame[relation] = entries.take(positions)\n"
        "    return frame\n"
    )
    # the storage layer's match-only range expansion stays legal
    _hash_index_path(synthetic_repo).write_text(
        HASH_INDEX_SOURCE
        + "def matching_rows(order, starts, counts):\n"
        "    return order[concat_ranges(starts, counts)]\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


def test_one_fanout_per_step_fires_on_repeat_all(synthetic_repo):
    # the expansion that re-repeated every column built so far per level
    (synthetic_repo / "src" / "repro" / "engine" / "factorized.py").write_text(
        "def _expand_batch(self, driver_entries, grouped, kernels):\n"
        "    frame = {self.query.root: driver_entries}\n"
        "    for relation in self._joined_preorder()[1:]:\n"
        "        parent_entries = frame[self.query.parent(relation)]\n"
        "        sorted_entries, starts, counts = grouped[relation]\n"
        "        per_tuple_counts = counts[parent_entries]\n"
        "        positions = kernels.concat_ranges(\n"
        "            starts[parent_entries], per_tuple_counts)\n"
        "        frame = {\n"
        "            rel: kernels.repeat_rows(entries, per_tuple_counts)\n"
        "            for rel, entries in frame.items()\n"
        "        }\n"
        "        frame[relation] = sorted_entries[positions]\n"
        "    return frame\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["ONE_FANOUT_PER_STEP"] * 2
    assert sorted(f.message.split("(")[0] for f in findings) == [
        "concat_ranges", "repeat_rows"]


def test_order_search_on_masks_allows_mask_states(synthetic_repo):
    core = synthetic_repo / "src" / "repro" / "core"
    write(synthetic_repo, "core/optimizer.py",
        "def _exact_block_order(memo, committed_order, block, mode, weights):\n"
        "    best = {memo.bit[memo.root]: (0.0, '', 0)}\n"
        "    for prefix in list(best):\n"
        "        for relation, bit, parent_bit in memo.non_root:\n"
        "            if prefix & bit or not prefix & parent_bit:\n"
        "                continue\n"
        "            best[prefix | bit] = (0.0, relation, prefix)\n"
        "    return best\n"
        "def greedy_order(query, stats):\n"
        "    return query.eligible_next([])\n"
    )
    write(synthetic_repo, "core/costmodel.py",
        '"""Pseudo nodes were once named "~bv:R"; now they are bits."""\n'
        "class CostMemo:\n"
        "    def __init__(self, query):\n"
        "        self.bit = {name: 1 << i\n"
        "                    for i, name in enumerate(query.preorder())}\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


def test_order_search_on_masks_fires_on_set_states(synthetic_repo):
    # the frozenset DP, the name-set memo translation and the pseudo names
    core = synthetic_repo / "src" / "repro" / "core"
    write(synthetic_repo, "core/optimizer.py",
        "def _exact_block_order(query, committed_order, block, memo):\n"
        "    block_set = frozenset(block)\n"
        "    best = {frozenset([query.root]): (0.0, [])}\n"
        "    for prefix_set, (cost, order) in list(best.items()):\n"
        "        for relation in query.eligible_next(order):\n"
        "            best[prefix_set | {relation}] = (cost, order + [relation])\n"
        "    return best\n"
        "def _frontier_pseudo(relation):\n"
        "    return f'~bv:{relation}'\n"
    )
    write(synthetic_repo, "core/costmodel.py",
        "class CostMemo:\n"
        "    def mask_of(self, names):\n"
        "        return sum(self.bit[name] for name in names)\n"
    )
    findings = run_all(load_linter(synthetic_repo))
    assert {f.rule for f in findings} == {"ORDER_SEARCH_ON_MASKS"}
    assert sorted(f.message.split(" ")[0] for f in findings) == [
        "a", "a", "eligible_next(...)", "frozenset(...)", "frozenset(...)",
        "mask_of()",
    ]


def test_plans_checked_at_construction_allows_the_reexport(synthetic_repo):
    src = synthetic_repo / "src" / "repro"
    (src / "__init__.py").write_text(
        "from .analysis import Diagnostic, verify_plan\n")
    (src / "analysis" / "__init__.py").write_text(
        "from .planlint import verify_plan\n")
    (src / "analysis" / "planlint.py").write_text(
        "from ..core.parser import parse_query\n"
        "from repro.analysis import planlint\n")
    write(synthetic_repo, "planner.py",
          "from .core.cyclic import tree_query_from_residuals\n")
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("relative, source", [
    # the verifier wired into the planner
    ("planner.py", "from .analysis import PlanVerifier, verify_spec\n"),
    # a knob choice list read from the analysis package
    ("options.py", "from .analysis import VALIDATE_CHOICES\n"
     "class PlanOptions:\n    mode: str = 'auto'\n"),
    # from a subpackage, and absolute
    ("service/session.py", "from ..analysis.planlint import verify_plan\n"),
    ("service/report.py", "import repro.analysis\n"),
    # signatures read at run time
    ("analysis/planlint.py", "import inspect\n"),
    ("core/query.py", "from inspect import signature\n"),
])
def test_plans_checked_at_construction_fires(synthetic_repo, relative,
                                             source):
    path = synthetic_repo / "src" / "repro" / relative
    path.parent.mkdir(exist_ok=True)
    write(synthetic_repo, relative, source)
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["PLANS_CHECKED_AT_CONSTRUCTION"]
    assert str(path.relative_to(synthetic_repo)) in str(findings[0])


def test_liveness_by_kill_allows_reads_and_the_owner(synthetic_repo):
    src = synthetic_repo / "src" / "repro"
    (src / "engine" / "factorized.py").write_text(
        "class FactorizedResult:\n"
        "    def _die(self, relation, entries, came_from):\n"
        "        node = self.nodes[relation]\n"
        "        node.alive[entries] = False\n"
        "        node.dead += len(entries)\n"
    )
    (src / "engine" / "executor.py").write_text(
        "def apply_check(result, relation, keep):\n"
        "    alive_idx = result.node(relation).alive_indices()\n"
        "    kept = result.node(relation).alive.copy()\n"
        "    kept[alive_idx[~keep]] = False\n"
        "    np.copyto(kept, result.node(relation).alive)\n"
        "    kept.fill(True)\n"
        "    starts = np.cumsum(result.node(relation).live, out=None)\n"
        "    if result.node(relation).dead:\n"
        "        result.kill(relation, alive_idx[~keep])\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("relative, source", [
    # the probe miss cleared in place, then the whole-tree re-sweep
    ("engine/executor.py",
     "def probe(result, parent_node, alive_idx, matched):\n"
     "    parent_node.alive[alive_idx[~matched]] = False\n"
     "    result.propagate_deaths()\n"),
    # augmented, whole-mask and unpacked writes
    ("core/cyclic.py",
     "def push_down(node, match):\n"
     "    node.alive &= match\n"),
    ("engine/wcoj.py",
     "def reset(node, n):\n"
     "    node.alive, node.dead = n, 0\n"),
    # the bookkeeping beside the mask: live counts and the dead total
    ("engine/executor.py",
     "def add(node, parent_ptr):\n"
     "    node.live[parent_ptr] += 1\n"),
    ("engine/executor.py",
     "def reset(node):\n"
     "    node.dead = 0\n"),
    # in-place ndarray methods, NumPy writers and out= arguments
    ("engine/semijoin.py",
     "def clear(node):\n"
     "    node.alive.fill(False)\n"),
    ("engine/semijoin.py",
     "def restore(node, saved):\n"
     "    np.copyto(node.alive, saved)\n"),
    ("engine/semijoin.py",
     "def drop(node, entries):\n"
     "    np.put(node.alive, entries, False)\n"),
    ("core/cyclic.py",
     "def push_down(node, match):\n"
     "    np.logical_and(node.alive, match, out=node.alive)\n"),
    # a re-sweep reintroduced under an import alias
    ("engine/semijoin.py",
     "from .factorized import propagate_deaths as sweep\n"),
])
def test_liveness_by_kill_fires(synthetic_repo, relative, source):
    path = synthetic_repo / "src" / "repro" / relative
    write(synthetic_repo, relative, source)
    findings = run_all(load_linter(synthetic_repo))
    assert {f.rule for f in findings} == {"LIVENESS_BY_KILL"}
    assert all(str(path.relative_to(synthetic_repo)) in str(f)
               for f in findings)
    assert len(findings) == (2 if "propagate_deaths()" in source else 1)


def test_structures_by_content_allows_storage_and_filtered_copies(
        synthetic_repo):
    src = synthetic_repo / "src" / "repro"
    (src / "storage" / "table.py").write_text(
        "class Table:\n"
        "    def structure(self, key, build):\n"
        "        return self._structures.setdefault(key, build(self))\n"
        "class Catalog:\n"
        "    def table_structure(self, name, key, build):\n"
        "        return self._tables[name].structure(key, build)\n"
    )
    write(synthetic_repo, "planner.py",
        "def filtered_table(table, alias, predicate):\n"
        "    if not predicate:\n"
        "        return table.renamed(alias)\n"
        "    mask = table.column('a') == predicate['a']\n"
        "    columns = {name: values[mask]\n"
        "               for name, values in table.columns.items()}\n"
        "    return Table(alias, columns)\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("relative, source", [
    # a structure cache read or written past the storage layer
    ("engine/executor.py",
     "def index(table, attr):\n"
     "    return table._structures[attr]\n"),
    ("engine/wcoj.py",
     "def warm(table, key, chain):\n"
     "    table._structures[key] = chain\n"),
    # a catalog-local index cache
    ("storage/table.py",
     "class Catalog:\n"
     "    def __init__(self):\n"
     "        self._indexes = {}\n"),
    # wrappers over another table's arrays, direct and through a name
    ("planner.py",
     "def alias_of(table, alias):\n"
     "    return Table(alias, table.columns)\n"),
    ("planner.py",
     "def alias_of(table, alias):\n"
     "    return Table(alias, {**table.columns})\n"),
    ("planner.py",
     "def filtered_table(table, alias, predicate):\n"
     "    if predicate:\n"
     "        columns = {n: v[predicate] for n, v in table.columns.items()}\n"
     "    else:\n"
     "        columns = dict(table.columns)\n"
     "    return Table(alias, columns)\n"),
    ("planner.py",
     "def alias_of(table, alias):\n"
     "    return Table(alias, {n: v for n, v in table.columns.items()})\n"),
])
def test_structures_by_content_fires(synthetic_repo, relative, source):
    path = synthetic_repo / "src" / "repro" / relative
    write(synthetic_repo, relative, source)
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["STRUCTURES_BY_CONTENT"]
    assert str(path.relative_to(synthetic_repo)) in str(findings[0])


def test_product_modules_reachable_flags_reexported_modules(synthetic_repo):
    """Re-exported by two package ``__init__``s and imported by a test,
    but asked for by no root: the module is flagged."""
    src = synthetic_repo / "src" / "repro"
    (src / "storage" / "io.py").write_text(
        "from .hashindex import HashIndex\n"
        "def load_catalog(path):\n"
        "    return HashIndex\n")
    (src / "storage" / "__init__.py").write_text(
        "from .hashindex import HashIndex\n"
        "from .io import load_catalog\n")
    (src / "__init__.py").write_text(
        "from .storage import HashIndex, load_catalog\n")
    (synthetic_repo / "tests").mkdir()
    (synthetic_repo / "tests" / "test_io.py").write_text(
        "from repro.storage.io import load_catalog\n")
    (synthetic_repo / "examples" / "demo.py").write_text(
        "from repro import HashIndex\n"
        "from repro.engine.kernels import VectorizedKernels\n"
        "from repro.options import PlanOptions\n")
    module = load_linter(synthetic_repo)
    assert unreached(module) == ["src/repro/storage/io.py"]
    assert run_all(module) == []


def test_product_modules_reachable_follows_benchmark_imports(synthetic_repo):
    """A benchmark's import keeps a module, transitively; a benchmark
    harness's own tests do not."""
    src = synthetic_repo / "src" / "repro"
    (src / "workloads").mkdir()
    (src / "workloads" / "__init__.py").write_text("")
    (src / "workloads" / "gen.py").write_text(
        "from ..core.query import JoinQuery\n")
    (src / "core" / "query.py").write_text("class JoinQuery:\n    pass\n")
    (src / "workloads" / "fixtures.py").write_text("")
    harness = synthetic_repo / "benchmarks" / "e2e"
    (harness / "tests").mkdir(parents=True)
    (harness / "child.py").write_text(
        "def run():\n"
        "    from repro.workloads.gen import JoinQuery\n"
        "    return JoinQuery\n")
    (harness / "tests" / "test_child.py").write_text(
        "from repro.workloads import fixtures\n")
    assert unreached(load_linter(synthetic_repo)) == [
        "src/repro/workloads/fixtures.py"]


def test_product_modules_reachable_follows_names_through_init(
        synthetic_repo):
    """A console script reaching a package ``__init__`` reaches only the
    names it asks for: a re-export is followed to the defining module,
    and a name the ``__init__`` defines reaches what it mentions."""
    (synthetic_repo / "pyproject.toml").write_text(
        "[project]\nname = 'demo'\n\n"
        "[project.scripts]\n"
        "demo-bench = \"repro.bench.__main__:main\"\n\n"
        "[tool.pytest.ini_options]\ntestpaths = ['tests']\n")
    src = synthetic_repo / "src" / "repro"
    for package in ("bench", "workloads"):
        (src / package).mkdir()
    (src / "bench" / "__init__.py").write_text(
        "from . import fig04\n"
        "from .runner import run_figures\n"
        "FIGURES = {'4': fig04}\n")
    (src / "bench" / "__main__.py").write_text(
        "from . import FIGURES\n"
        "def main():\n"
        "    return FIGURES\n")
    (src / "bench" / "fig04.py").write_text(
        "from ..workloads import build_dataset\n")
    (src / "bench" / "runner.py").write_text("")
    (src / "workloads" / "__init__.py").write_text(
        "from .cebench import build_dataset\n"
        "from .cyclic import cyclic_catalog\n")
    (src / "workloads" / "cebench.py").write_text("")
    (src / "workloads" / "cyclic.py").write_text("")
    assert unreached(load_linter(synthetic_repo)) == [
        "src/repro/bench/runner.py", "src/repro/workloads/cyclic.py"]


def test_product_modules_reachable_follows_plain_and_relative_imports(
        synthetic_repo):
    """``import repro.a.b`` reaches ``a.b``; a reached module's relative
    imports — ``from .x import y`` and ``from .. import module`` —
    resolve against its own package."""
    src = synthetic_repo / "src" / "repro"
    (src / "core" / "plan.py").write_text(
        "from .cost import price\n"
        "from .. import analysis\n"
        "from ..analysis import hazards\n")
    (src / "core" / "cost.py").write_text("def price():\n    return 0\n")
    (src / "analysis" / "hazards.py").write_text("")
    (src / "analysis" / "report.py").write_text("")
    (synthetic_repo / "examples" / "plans.py").write_text(
        "import repro.core.plan\n")
    assert unreached(load_linter(synthetic_repo)) == [
        "src/repro/analysis/report.py"]


def test_product_modules_reachable_follows_aliased_reexports(
        synthetic_repo):
    """``from .m import f as g`` in an ``__init__`` binds ``g``: asking
    the package for ``g`` reaches ``m``; asking for another name does
    not."""
    src = synthetic_repo / "src" / "repro"
    (src / "workloads").mkdir()
    (src / "workloads" / "__init__.py").write_text(
        "from .cebench import build as build_dataset\n"
        "from .shapes import chain as chain_query\n")
    (src / "workloads" / "cebench.py").write_text("def build():\n    pass\n")
    (src / "workloads" / "shapes.py").write_text("def chain():\n    pass\n")
    (synthetic_repo / "examples" / "data.py").write_text(
        "from repro.workloads import build_dataset\n")
    assert unreached(load_linter(synthetic_repo)) == [
        "src/repro/workloads/shapes.py"]


def test_product_modules_reachable_ignores_cycles_among_unreached(
        synthetic_repo):
    """Two modules importing each other keep neither alive."""
    src = synthetic_repo / "src" / "repro"
    (src / "core" / "left.py").write_text("from .right import b\na = 1\n")
    (src / "core" / "right.py").write_text("from .left import a\nb = 1\n")
    assert unreached(load_linter(synthetic_repo)) == [
        "src/repro/core/left.py", "src/repro/core/right.py"]


def test_product_modules_reachable_without_roots_flags_everything(
        synthetic_repo):
    """No console script, example or benchmark: every module but the
    package ``__init__``s is unreached, and each finding says so."""
    (synthetic_repo / "examples" / "demo.py").unlink()
    module = load_linter(synthetic_repo)
    findings = module.check_product_modules_reachable()
    assert [str(f.path) for f in findings] == [
        "src/repro/engine/kernels.py", "src/repro/options.py",
        "src/repro/storage/hashindex.py"]
    assert {f.rule for f in findings} == {"PRODUCT_MODULES_REACHABLE"}
    assert all("only tests or re-exports" in str(f) for f in findings)


@pytest.mark.parametrize("level, name, package, expected", [
    (0, "repro.core", ("repro", "engine"), "repro.core"),
    (1, "cost", ("repro", "core"), "repro.core.cost"),
    (1, None, ("repro", "core"), "repro.core"),
    (2, "storage", ("repro", "core"), "repro.storage"),
    (2, None, ("repro", "core"), "repro"),
    (1, "cost", None, None),
])
def test_from_base_resolves_relative_levels(level, name, package, expected):
    node = ast.ImportFrom(module=name, names=[], level=level)
    assert load_linter(REPO)._from_base(node, package) == expected


def test_caches_keyed_by_relation_allows_table_fingerprints(synthetic_repo):
    """Keys built from the fingerprints of the tables read pass, and a
    catalog fingerprint outside the three keyed methods' reach (a
    process pool's key) is none of the rule's business."""
    write(synthetic_repo, "service/session.py",
        "class QuerySession:\n"
        "    def _key(self, query):\n"
        "        return (query, self._read_tables(query))\n"
        "    def _read_tables(self, query):\n"
        "        return tuple(self.catalog.table(name).fingerprint()\n"
        "                     for name in sorted(query))\n"
        "    def _worker_pool_for(self, plan):\n"
        "        return (self.catalog.fingerprint(), plan.num_workers)\n"
        "class PreparedStatement:\n"
        "    def _structural_plan(self):\n"
        "        return self.session._read_tables(self.parsed)\n"
    )
    write(synthetic_repo, "planner.py",
        "class Planner:\n"
        "    def _apply_partitioning(self, prep):\n"
        "        return tuple(sorted(prep.tokens.items()))\n"
        "    def rehydrate(self, spec):\n"
        "        return spec.catalog_fingerprint == self.catalog.fingerprint()\n"
    )
    assert run_all(load_linter(synthetic_repo)) == []


@pytest.mark.parametrize("relative, source", [
    ("service/session.py",
     "class QuerySession:\n"
     "    def _key(self, query):\n"
     "        return (query, self.catalog.fingerprint())\n"),
    # through a helper of the same module
    ("service/session.py",
     "class PreparedStatement:\n"
     "    def _structural_plan(self):\n"
     "        return self._tables()\n"
     "    def _tables(self):\n"
     "        return self.session.catalog.fingerprint()\n"),
    # in a nested helper, reported once
    ("planner.py",
     "class Planner:\n"
     "    def _apply_partitioning(self, prep):\n"
     "        def token():\n"
     "            return (prep.catalog.fingerprint(),)\n"
     "        return token()\n"),
])
def test_caches_keyed_by_relation_fires(synthetic_repo, relative, source):
    path = synthetic_repo / "src" / "repro" / relative
    path.parent.mkdir(exist_ok=True)
    write(synthetic_repo, relative, source)
    findings = run_all(load_linter(synthetic_repo))
    assert [f.rule for f in findings] == ["CACHES_KEYED_BY_RELATION"]
    assert str(path.relative_to(synthetic_repo)) in str(findings[0])


# ----------------------------------------------------------------------
# ONE_RECLAIM_GATE
# ----------------------------------------------------------------------


def gate_findings(module):
    return [(str(f.path), f.line) for f in module.check_one_reclaim_gate()]


def test_one_reclaim_gate_fires_on_a_second_reader(synthetic_repo):
    """A cache reclaimed behind its own version check is a second gate:
    both readers are named."""
    (synthetic_repo / "src" / "repro" / "core" / "session.py").write_text(
        "class Session:\n"
        "    def _read_tables(self):\n"
        "        if self.catalog.version != self._seen_version:\n"
        "            self.plan_cache.reclaim(self.catalog)\n"
    )
    findings = load_linter(synthetic_repo).check_one_reclaim_gate()
    assert {f.rule for f in findings} == {"ONE_RECLAIM_GATE"}
    assert sorted((str(f.path), f.line) for f in findings) == [
        ("src/repro/core/session.py", 3), ("src/repro/options.py", 4)]
    assert "one of 2 readers" in str(findings[0])


def test_one_reclaim_gate_fires_without_a_reader(synthetic_repo):
    (synthetic_repo / "src" / "repro" / "options.py").write_text(
        "class PlanOptions:\n    mode: str = 'auto'\n")
    findings = load_linter(synthetic_repo).check_one_reclaim_gate()
    assert [f.rule for f in findings] == ["ONE_RECLAIM_GATE"]
    assert "never reclaimed" in str(findings[0])


def test_one_reclaim_gate_ignores_storage_and_writes(synthetic_repo):
    """The storage layer maintains the version, and one function reading
    it twice is still one gate."""
    src = synthetic_repo / "src" / "repro"
    (src / "storage" / "table.py").write_text(
        "class Catalog:\n"
        "    @property\n"
        "    def version(self):\n"
        "        return self._version\n"
        "    def bump(self, other):\n"
        "        return other.version + 1\n"
    )
    (src / "options.py").write_text(
        "def reclaim(planner):\n"
        "    planner.version = 0\n"
        "    return planner.catalog.version, planner.catalog.version\n"
    )
    assert gate_findings(load_linter(synthetic_repo)) == []


# ----------------------------------------------------------------------
# PACKAGE_EXPORTS_REQUESTED
# ----------------------------------------------------------------------


def _exporting_storage(repo):
    """``repro.storage`` re-exports ``HashIndex`` (the fixture's example
    asks the defining module for it) and ``probe``."""
    src = repo / "src" / "repro"
    (src / "storage" / "probing.py").write_text(
        "def probe(index, keys):\n    return index\n")
    (src / "storage" / "__init__.py").write_text(
        "from .hashindex import HashIndex\n"
        "from .probing import probe\n"
        "__all__ = ['HashIndex', 'probe']\n")


def exports_findings(module):
    return [(f.path.as_posix(), f.line, f.message.split()[0])
            for f in module.check_package_exports_requested()]


def test_package_exports_requested_flags_test_only_reexports(synthetic_repo):
    """Asked for only by a test — one under ``tests/`` and one in a
    benchmark harness's ``tests`` directory — a re-export is flagged,
    each name on its own ``__all__`` line."""
    _exporting_storage(synthetic_repo)
    (synthetic_repo / "tests").mkdir()
    (synthetic_repo / "tests" / "test_probe.py").write_text(
        "from repro.storage import HashIndex, probe\n")
    harness = synthetic_repo / "benchmarks" / "e2e" / "tests"
    harness.mkdir(parents=True)
    (harness / "test_child.py").write_text(
        "from repro.storage import probe\n")
    (synthetic_repo / "examples" / "probe.py").write_text(
        "from repro.storage.probing import probe\n")
    module = load_linter(synthetic_repo)
    assert exports_findings(module) == [
        ("src/repro/storage/__init__.py", 3, "repro.storage.HashIndex"),
        ("src/repro/storage/__init__.py", 3, "repro.storage.probe"),
    ]
    assert unreached(module) == []
    assert all(f.rule == "PACKAGE_EXPORTS_REQUESTED"
               for f in module.check_package_exports_requested())


@pytest.mark.parametrize("relative, source", [
    ("examples/probe.py", "from repro.storage import probe\n"),
    ("benchmarks/bench_probe.py",
     "def run():\n    from repro.storage import probe\n    return probe\n"),
    ("benchmarks/e2e/child.py", "from repro import probe\n"),
    ("src/repro/engine/kernels.py",
     "from ..storage import probe\n"
     "class VectorizedKernels:\n"
     "    def lookup(self, index, keys):\n"
     "        return probe(index, keys)\n"
     "class InterpretedKernels:\n"
     "    def lookup(self, index, keys):\n"
     "        return probe(index, keys)\n"),
])
def test_package_exports_requested_keeps_requested_names(synthetic_repo,
                                                         relative, source):
    """An example, a benchmark outside its ``tests``, a reached product
    module or another ``__init__`` on a requested name asks the package
    for ``probe``: the re-export stays."""
    _exporting_storage(synthetic_repo)
    (synthetic_repo / "src" / "repro" / "__init__.py").write_text(
        "from .storage import probe\n__all__ = ['probe']\n")
    (synthetic_repo / "examples" / "demo.py").write_text(
        "from repro.engine.kernels import VectorizedKernels\n"
        "from repro.options import PlanOptions\n"
        "from repro.storage import HashIndex\n"
        "options = PlanOptions(mode='auto')\n")
    path = synthetic_repo / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    module = load_linter(synthetic_repo)
    expected = [] if relative == "benchmarks/e2e/child.py" else [
        ("src/repro/__init__.py", 2, "repro.probe")]
    assert exports_findings(module) == expected
    assert run_all(module) == []


def test_package_exports_requested_exempts_dunder_names(synthetic_repo):
    """``pyproject.toml`` reads ``repro.__version__``, which no import
    asks for."""
    (synthetic_repo / "src" / "repro" / "__init__.py").write_text(
        "__version__ = '1.0'\n__all__ = ['__version__']\n")
    assert exports_findings(load_linter(synthetic_repo)) == []


# ----------------------------------------------------------------------
# PLAN_KNOBS_USED
# ----------------------------------------------------------------------


def _two_knob_options(repo, second="beam_width"):
    (repo / "src" / "repro" / "options.py").write_text(
        "class PlanOptions:\n"
        "    mode: str = 'auto'\n"
        f"    {second}: int = 8\n")
    (repo / "README.md").write_text(
        "## Planner / session knobs\n\n"
        f"| knob |\n|---|\n| `mode` |\n| `{second}` |\n\n## Next\n")


def knob_findings(module):
    return [f.message.split()[0] for f in module.check_plan_knobs_used()]


def test_plan_knobs_used_flags_test_only_knobs(synthetic_repo):
    """A knob only tests turn — and a benchmark harness's tests are
    tests — is flagged at its field."""
    _two_knob_options(synthetic_repo)
    (synthetic_repo / "tests").mkdir()
    (synthetic_repo / "tests" / "test_beam.py").write_text(
        "def test_beam(planner):\n"
        "    assert planner.beam_width == Planner(beam_width=4).beam_width\n")
    harness = synthetic_repo / "benchmarks" / "e2e" / "tests"
    harness.mkdir(parents=True)
    (harness / "test_gen.py").write_text("SESSION = {'beam_width': 4}\n")
    module = load_linter(synthetic_repo)
    findings = module.check_plan_knobs_used()
    assert knob_findings(module) == ["PlanOptions.beam_width"]
    assert str(findings[0]).startswith(
        "src/repro/options.py:3: PLAN_KNOBS_USED:")
    assert run_all(module) == []


@pytest.mark.parametrize("relative, source", [
    ("benchmarks/e2e/child.py",
     "def search(planner):\n    return planner.beam_width\n"),
    ("benchmarks/e2e/child.py",
     "def search(session):\n    return session.planner.beam_width\n"),
    ("benchmarks/e2e/gen.py",
     "WORKLOAD = dict(session={'beam_width': 4}, execute={})\n"),
    ("examples/beam.py",
     "from repro.options import PlanOptions\n"
     "options = PlanOptions(beam_width=4)\n"),
    ("src/repro/bench/fig10.py",
     "def run(options):\n    return options.beam_width\n"),
])
def test_plan_knobs_used_keeps_named_knobs(synthetic_repo, relative, source):
    """Read off a planner or options record, given as a keyword or as a
    knob-dict key by a root or a figure driver: the knob is used."""
    _two_knob_options(synthetic_repo)
    path = synthetic_repo / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    assert knob_findings(load_linter(synthetic_repo)) == []


def test_plan_knobs_used_exemptions_state_their_reason(synthetic_repo):
    """An exempted knob no root names passes, and every exemption says
    which open item decides it."""
    _two_knob_options(synthetic_repo, second="planning_budget_ms")
    module = load_linter(synthetic_repo, exempt={
        "planning_budget_ms": "product deadlines and a cold workload"})
    assert knob_findings(module) == []
    assert all(isinstance(reason, str) and len(reason.split()) >= 3
               for reason in load_linter(REPO).PLAN_KNOBS_EXEMPT.values())


def test_plan_knobs_used_flags_stale_exemptions(synthetic_repo):
    """An exemption for a name that is neither a ``PlanOptions`` field
    nor a constructor keyword outlived its knob: it is a finding, while
    live exemptions of either kind still pass."""
    _two_knob_options(synthetic_repo, second="planning_budget_ms")
    _serving_constructors(synthetic_repo, ["max_concurrency"])
    module = load_linter(synthetic_repo, exempt=dict.fromkeys(
        ("planning_budget_ms", "plan_cache_size", "max_concurrency",
         "planning_workers", "max_replans"), "an open item decides it"))
    findings = module.check_plan_knobs_used()
    assert knob_findings(module) == ["PLAN_KNOBS_EXEMPT.max_replans"]
    assert str(findings[0]).startswith(
        "tools/check_invariants.py: PLAN_KNOBS_USED:")


def test_plan_knobs_used_exempts_only_live_knobs():
    """The real table: the three fields and six constructor keywords
    no root names yet, each still a knob — an exemption outliving its
    knob is stale."""
    from repro.options import PlanOptions

    module = load_linter(REPO)
    exempt = module.PLAN_KNOBS_EXEMPT
    assert sorted(exempt) == [
        "execution", "executor_workers", "max_concurrency",
        "plan_cache_size", "planning_budget_ms", "planning_workers",
        "process_min_relations", "robustness", "stats_cache_size"]
    sites = module._knob_sites()
    assert set(exempt) <= set(sites)
    assert {name for name, (owner, _, _) in sites.items()
            if owner == "PlanOptions"} == set(PlanOptions.__dataclass_fields__)


def _serving_constructors(repo, service_keywords):
    """A session taking ``plan_cache_size`` and a service taking
    ``service_keywords`` (each defaulted), beside one positional."""
    service = repo / "src" / "repro" / "service"
    service.mkdir(exist_ok=True)
    (service / "__init__.py").write_text("")
    (service / "session.py").write_text(
        "class QuerySession:\n"
        "    def __init__(self, catalog, plan_cache_size=128, **knobs):\n"
        "        self.catalog = catalog\n")
    (service / "async_service.py").write_text(
        "class AsyncQueryService:\n"
        "    def __init__(self, session, "
        + "".join(f"{name}=None, " for name in service_keywords)
        + "*, planning_workers=0):\n"
        "        self.session = session\n")


#: the exemptions of the deployment-sizing keywords every serving pair
#: below declares
SERVING_EXEMPT = dict.fromkeys(("plan_cache_size", "planning_workers"),
                               "deployment sizing: set per host")


def test_plan_knobs_used_flags_unused_constructor_keywords(synthetic_repo):
    """A service or session keyword no root names is flagged at its
    parameter; exempt keywords and positionals pass."""
    _serving_constructors(synthetic_repo, ["max_concurrency", "spare_slots"])
    module = load_linter(synthetic_repo, exempt=dict(
        SERVING_EXEMPT, max_concurrency="deployment sizing: set per host"))
    findings = module.check_plan_knobs_used()
    assert knob_findings(module) == ["AsyncQueryService.spare_slots"]
    assert str(findings[0]).startswith(
        "src/repro/service/async_service.py:2: PLAN_KNOBS_USED:")


def test_plan_knobs_used_keeps_named_constructor_keywords(synthetic_repo):
    _serving_constructors(synthetic_repo, ["spare_slots"])
    (synthetic_repo / "examples" / "serve.py").write_text(
        "def serve(service_type, session):\n"
        "    return service_type(session, spare_slots=2)\n")
    assert knob_findings(
        load_linter(synthetic_repo, exempt=SERVING_EXEMPT)) == []


# ----------------------------------------------------------------------
# Scoped rules report a missing target
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rule, relative, target", [
    ("KERNEL_SURFACE", "engine/kernels.py", "InterpretedKernels"),
    ("INDEX_LAYOUT_SELECTOR", "storage/hashindex.py", "HashIndex.__init__"),
    ("STATS_SINGLE_PRODUCER", "planner.py", "decide"),
    ("COST_FLOOR_SINGLE_PRODUCER", "planner.py", "decide"),
    ("WCOJ_PRICED_ONCE", "planner.py", "decide"),
    ("WCOJ_BUILD_ONCE", "engine/wcoj.py", "execute_wcoj"),
    ("PLAN_FIELD_SINGLE_DECLARATION", "planner.py", "PlanSpec"),
    ("PLAN_FIELD_SINGLE_DECLARATION", "planner.py",
     "PhysicalPlan.fingerprint"),
    ("ORDER_SEARCH_ON_MASKS", "core/optimizer.py", "_greedy_block"),
    ("ORDER_SEARCH_ON_MASKS", "core/costmodel.py", "CostMemo"),
    ("STRUCTURES_BY_CONTENT", "planner.py", "filtered_table"),
    ("README_KNOB_TABLE", "options.py", "PlanOptions"),
    ("PLAN_KNOBS_USED", "service/async_service.py",
     "AsyncQueryService.__init__"),
    ("CACHES_KEYED_BY_RELATION", "planner.py", "Planner._apply_partitioning"),
    ("CACHES_KEYED_BY_RELATION", "service/session.py", "QuerySession._key"),
    ("CACHES_KEYED_BY_RELATION", "service/session.py",
     "PreparedStatement._structural_plan"),
])
def test_scoped_rule_reports_its_renamed_target(synthetic_repo, rule,
                                                relative, target):
    """A rule scoped to a class, function or method does not go quiet
    when its target is renamed: it names the target it lost."""
    path = synthetic_repo / "src" / "repro" / relative
    name = target.rpartition(".")[2]
    path.write_text(re.sub(rf"\b{name}\b", f"{name}_renamed",
                           path.read_text()))
    findings = getattr(load_linter(synthetic_repo), f"check_{rule.lower()}")()
    assert [str(f) for f in findings if f.line == 0 and "not found" in str(f)] \
        == [f"src/repro/{relative}: {rule}: {target} not found — the rule's "
            "target moved; point it there"]


@pytest.mark.parametrize("relative, rules", [
    ("planner.py", {"STATS_SINGLE_PRODUCER", "COST_FLOOR_SINGLE_PRODUCER",
                    "WCOJ_PRICED_ONCE", "PLAN_FIELD_SINGLE_DECLARATION",
                    "STRUCTURES_BY_CONTENT", "CACHES_KEYED_BY_RELATION"}),
    ("engine/wcoj.py", {"WCOJ_BUILD_ONCE"}),
    ("core/costmodel.py", {"ORDER_SEARCH_ON_MASKS"}),
])
def test_scoped_rules_report_a_moved_body(synthetic_repo, relative, rules):
    """The whole module moved elsewhere — with a second wcoj pricing and
    a floor function in the planner's case — leaves every rule scoped
    to the old file naming it."""
    src = synthetic_repo / "src" / "repro"
    moved = (src / relative).read_text()
    (src / relative).unlink()
    (src / "core" / "moved.py").write_text(
        moved + "def _floor(rooted):\n    return wcoj_cost(rooted)\n"
        "def price(rooted):\n    return wcoj_cost(rooted)\n")
    findings = run_all(load_linter(synthetic_repo))
    assert {f.rule for f in findings
            if f.message.startswith("file not found")
            and str(f.path) == f"src/repro/{relative}"} == rules
