"""Generated inputs: a pure function of the seed, with exact shares."""

from collections import Counter

import gen
import numpy as np
import pytest


def stream(workload):
    return [(op[0], op[1].sql() if op[0] == "read" else repr(op[1:]))
            for op in workload.ops]


@pytest.mark.parametrize("name", gen.WORKLOAD_NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = gen.generate(name, 7, 1.0, scale=0.1)
    again = gen.generate(name, 7, 1.0, scale=0.1)
    other = gen.generate(name, 8, 1.0, scale=0.1)
    assert stream(first) == stream(again)
    assert first.due == again.due
    for table, columns in first.tables.items():
        for column, values in columns.items():
            assert np.array_equal(values, again.tables[table][column])
    assert stream(first) != stream(other)


def test_poisson_schedule_is_seeded_and_spans_the_run():
    first = gen.generate("open_arrivals", 3, 2.0, scale=0.1)
    again = gen.generate("open_arrivals", 3, 2.0, scale=0.1)
    other = gen.generate("open_arrivals", 4, 2.0, scale=0.1)
    assert first.due == again.due != other.due
    assert len(first.due) == int(gen.ARRIVAL_RATE * 2.0)
    assert len(first.ops) == gen.WARMUP_OPS + len(first.due)
    assert first.due == sorted(first.due)
    assert first.due[-1] == pytest.approx(2.0)


SHARES = {
    "warm_serving": {"light": 60, "medium": 30, "heavy": 10},
    "cold_planning": {"light": 60, "medium": 30, "heavy": 10},
    "cyclic_skew": {"light": 60, "medium": 30, "heavy": 10},
    "distributed_scatter": {"light": 60, "medium": 30, "heavy": 10},
    "live_mutation": {"light": 80, "medium": 10, "heavy": 10},
    "open_arrivals": {"light": 80, "heavy": 10, "cold": 10},
}


@pytest.mark.parametrize("name", gen.WORKLOAD_NAMES)
def test_cost_class_shares_are_exact_per_block(name):
    workload = gen.generate(name, 5, 4.0, scale=0.1)
    reads = [op[2] for op in workload.ops if op[0] == "read"]
    assert Counter(reads[:100]) == SHARES[name]


def test_live_mutation_writes_every_tenth_read_alternating():
    workload = gen.generate("live_mutation", 5, 1.0, scale=0.1)
    kinds = [op[0] for op in workload.ops[:45]]
    assert kinds.count("read") == 41
    assert [k for k in kinds if k != "read"] == [
        "update", "append", "update", "append"]
    assert kinds[10] == "update" and kinds[21] == "append"


def test_cold_planning_never_repeats_a_request():
    workload = gen.generate("cold_planning", 5, 2.0)
    statements = [op[1].sql() for op in workload.ops]
    assert len(set(statements)) == len(statements)
    assert not set(statements) & {query.sql() for query in workload.pool}


def test_stratified_keys_have_exact_frequencies():
    rng = np.random.default_rng(0)
    uniform = gen.stratified_keys(rng, 1000, 8)
    assert Counter(uniform.tolist()) == dict.fromkeys(range(8), 125)
    one = gen.stratified_keys(np.random.default_rng(1), 500, 12, skew=1.0)
    two = gen.stratified_keys(np.random.default_rng(2), 500, 12, skew=1.0)
    assert Counter(one.tolist()) == Counter(two.tolist())
    assert not np.array_equal(one, two)
    counts = np.bincount(one, minlength=12)
    assert counts.sum() == 500 and all(np.diff(counts) <= 0)


def test_the_program_receives_sql_text_only():
    workload = gen.generate("live_mutation", 5, 1.0, scale=0.1)
    inputs = workload.program_inputs()
    assert all(isinstance(sql, str) for sql in inputs["pool"])
    assert all(isinstance(op[1], str) for op in inputs["ops"]
               if op[0] == "read")
