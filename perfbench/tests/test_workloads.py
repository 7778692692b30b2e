import pytest

import workloads
from isoperturb.config import parse_scenario


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name):
    assert workloads.make_scenario(name, 7, 2) == workloads.make_scenario(name, 7, 2)
    draws = {workloads.make_scenario(name, seed, 0)["seed"] for seed in range(20)}
    assert len(draws) == 20


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_parse_and_stay_in_the_band(name):
    base = workloads.BASE[name]
    for seed in range(20):
        raw = workloads.make_scenario(name, seed, seed % 3)
        sc = parse_scenario(raw)
        assert sc.command == base["command"]
        if "family" in base:
            ratio = sc.family.beta / base["family"]["beta"]
            assert abs(ratio - 1.0) <= workloads.BETA_BAND
            assert {k: v for k, v in raw["family"].items() if k != "beta"} == {
                k: v for k, v in base["family"].items() if k != "beta"}
        assert {k: v for k, v in raw.items() if k not in ("seed", "family")} == {
            k: v for k, v in base.items() if k != "family"}


def test_base_scenarios_are_not_mutated():
    before = repr(workloads.BASE)
    workloads.make_scenario("chart-family", 1, 0)["family"]["beta"] = 99.0
    assert repr(workloads.BASE) == before


def test_unknown_workload_is_refused():
    with pytest.raises(KeyError):
        workloads.make_scenario("no-such-workload", 1, 0)
