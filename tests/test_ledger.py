import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netdecomp import (
    RoundLedger,
    charge_bfs,
    charge_leader_election,
    charge_steiner_aggregate,
    merge_parallel,
)


def test_charge_bfs_exact_depths():
    led = RoundLedger()
    charge_bfs(led, 0)
    assert led.total_rounds == 0
    charge_bfs(led, 7)
    assert led.total_rounds == 7
    assert led.breakdown == [("bfs", 0), ("bfs", 7)]


def test_charge_bfs_rejects_negative():
    with pytest.raises(ValueError):
        charge_bfs(RoundLedger(), -1)


def test_steiner_aggregate_is_product():
    led = RoundLedger()
    charge_steiner_aggregate(led, 5, 1)
    assert led.total_rounds == 5
    charge_steiner_aggregate(led, 0, 3)
    assert led.total_rounds == 5
    with pytest.raises(ValueError):
        charge_steiner_aggregate(led, 3, 0)


def test_leader_election_three_d():
    led = RoundLedger()
    charge_leader_election(led, 4)
    assert led.total_rounds == 12
    assert led.breakdown[0][0] == "leader-election"


def test_merge_parallel_takes_max():
    leds = []
    for total in (3, 9, 4):
        led = RoundLedger()
        led.add("x", total)
        leds.append(led)
    merged = merge_parallel(leds)
    assert merged.total_rounds == 9
    assert merged.breakdown[-1] == ("parallel-over-3-components", 0)


def test_merge_parallel_single_is_identity_up_to_marker():
    led = RoundLedger()
    led.add("bfs", 5)
    merged = merge_parallel([led])
    assert merged.total_rounds == 5
    assert merged.breakdown[:-1] == led.breakdown


def test_merge_parallel_empty_errors():
    with pytest.raises(ValueError):
        merge_parallel([])


def test_json_schema_roundtrip():
    led = RoundLedger()
    charge_bfs(led, 3)
    charge_steiner_aggregate(led, 2, 2)
    obj = led.to_json()
    assert obj == {
        "total": 7,
        "breakdown": [
            {"label": "bfs", "rounds": 3},
            {"label": "steiner-aggregate", "rounds": 4},
        ],
    }
    again = RoundLedger.from_json(json.loads(json.dumps(obj)))
    assert again.to_json() == obj


@pytest.mark.parametrize(
    "obj",
    [
        # truncated to 2 and counted as 1, this loaded with total 3
        {"total": 3, "breakdown": [{"label": "x", "rounds": 2.9}, {"label": 7, "rounds": True}]},
        {"total": 2, "breakdown": [{"label": "x", "rounds": 2.0}]},
        {"total": 1, "breakdown": [{"label": "x", "rounds": True}]},
        {"total": 1, "breakdown": [{"label": 7, "rounds": 1}]},
        {"total": 1.0, "breakdown": [{"label": "x", "rounds": 1}]},
        {"total": True, "breakdown": [{"label": "x", "rounds": 1}]},
    ],
)
def test_from_json_refuses_what_to_json_never_writes(obj):
    with pytest.raises(ValueError):
        RoundLedger.from_json(obj)


charges = st.lists(st.integers(0, 50), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(st.lists(charges, min_size=1, max_size=5))
def test_sequential_additive_parallel_max_and_associative(groups):
    # sequential composition inside each group is additive
    leds = []
    for grp in groups:
        led = RoundLedger()
        for c in grp:
            led.add("op", c)
        assert led.total_rounds == sum(grp)
        leds.append(led)
    # parallel composition is max
    merged = merge_parallel(leds)
    assert merged.total_rounds == max(sum(grp) for grp in groups)
    # associativity of the total under arbitrary bracketing
    if len(leds) >= 3:
        left = merge_parallel([merge_parallel(leds[:2]), leds[2]])
        right = merge_parallel([leds[0], merge_parallel(leds[1:3])])
        assert left.total_rounds == right.total_rounds


def test_total_always_sum_of_breakdown():
    led = RoundLedger()
    for i in range(10):
        led.add(f"l{i}", i)
    assert led.total_rounds == sum(r for _, r in led.breakdown)
