"""Each correctness check catches the fault it exists for."""

import pytest

import run


@pytest.mark.parametrize(
    "workload, fault",
    [
        ("models-e2e", "flip-output"),
        ("decode-session", "twin-mismatch"),
        ("serve-trace", "perturb-p99"),
    ],
)
def test_injected_fault_is_counted(workload, fault):
    record = run.measure(workload, 1, 0, smoke=True, faults=frozenset({fault}))
    assert record["failed"] > 0
    assert not record["correct"]
    assert record["failed"] / record["attempted"] > 0


def test_unknown_fault_is_rejected():
    with pytest.raises(ValueError):
        run.measure("serve-trace", 1, 0, smoke=True, faults=frozenset({"nope"}))
