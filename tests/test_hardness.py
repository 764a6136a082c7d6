"""Planted-gold hardness gadget: oracles, validity sweeps, query demos."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from covsketch import (PlantedGoldInstance, query_counter_demo,
                       verify_oracle_validity)
from covsketch.errors import ConfigError, IdRangeError
from covsketch.hardness import STRATEGIES


def test_shape_validation():
    with pytest.raises(ConfigError):
        PlantedGoldInstance(0, 1, 0.1, seed=0)
    with pytest.raises(ConfigError):
        PlantedGoldInstance(5, 0, 0.1, seed=0)
    with pytest.raises(ConfigError):
        PlantedGoldInstance(5, 6, 0.1, seed=0)
    with pytest.raises(ConfigError):
        PlantedGoldInstance(5, 2, 0.0, seed=0)
    with pytest.raises(ConfigError):
        PlantedGoldInstance(5, 2, 1.0, seed=0)
    with pytest.raises(IdRangeError):
        PlantedGoldInstance.from_gold(5, [0, 5], 0.1)


def test_gold_draw_is_seeded_and_in_range():
    a = PlantedGoldInstance(50, 5, 0.1, seed=9)
    b = PlantedGoldInstance(50, 5, 0.1, seed=9)
    assert a.audit_gold() == b.audit_gold()
    assert len(a.audit_gold()) == 5
    assert all(0 <= i < 50 for i in a.audit_gold())
    c = PlantedGoldInstance(50, 5, 0.1, seed=10)
    assert c.audit_gold() != a.audit_gold()


def test_audit_identities():
    inst = PlantedGoldInstance.from_gold(10, [2, 7], 0.2)
    gold = inst.audit_gold()
    assert inst.gold_count([2, 3, 7]) == 2
    assert inst.gold_count([]) == 0
    assert inst.gold_count(range(10)) == len(gold)
    # true coverage is k + (n/k) * gold hits, exactly
    assert inst.true_coverage([3]) == Fraction(2)
    assert inst.true_coverage([2]) == Fraction(2) + Fraction(10, 2)
    assert inst.true_coverage(range(10)) == Fraction(2 + 10)
    assert inst.true_coverage(range(10)) == inst.opt_value
    with pytest.raises(ConfigError):
        inst.true_coverage([])
    with pytest.raises(IdRangeError):
        inst.true_coverage([10])


def test_items_must_be_integers():
    inst = PlantedGoldInstance.from_gold(10, [2, 7], 0.2)
    # a float is not truncated to a gold id: 2.9 is not item 2
    for oracle in (inst.gold_count, inst.true_coverage, inst.deviation_oracle,
                   inst.noisy_coverage_oracle):
        with pytest.raises(ConfigError):
            oracle([2.9])
        with pytest.raises(ConfigError):
            oracle([3, np.float64(2.0)])
    with pytest.raises(ConfigError):
        PlantedGoldInstance.from_gold(10, [2.0, 7], 0.2)
    # Python and numpy integers both pass
    assert inst.gold_count([2, np.int64(7), np.uint8(3)]) == 2
    assert inst.true_coverage(np.array([2, 7])) == Fraction(2 + 10)


def test_opt_value_identity_sampled_shapes():
    for n, k in [(10, 1), (10, 3), (57, 7), (200, 20), (1000, 100)]:
        inst = PlantedGoldInstance(n, k, 0.1, seed=n + k)
        assert inst.opt_value == k + n
        assert inst.true_coverage(inst.audit_gold()) == Fraction(k) + Fraction(n)
        assert inst.eps_prime == pytest.approx(2 * 0.1)


def test_deviation_oracle_band_arithmetic():
    inst = PlantedGoldInstance.from_gold(10, [0, 1], 0.2)
    # S = all items: g = 2 = center, inside the band
    assert inst.deviation_oracle(range(10)) == 0
    # S = gold: center = 2*2/10 = 0.4, slack = 0.2*(0.4 + 0.4) = 0.16,
    # g = 2 way outside
    assert inst.deviation_oracle([0, 1]) == 1
    # S = one quiet item: center 0.2, slack 0.2*(0.2+0.4)=0.12, g=0 -> inside?
    # 0.2 - 0.12 = 0.08 > 0, so g=0 actually escapes the band from below
    assert inst.deviation_oracle([5]) == 1
    # empty query never deviates
    assert inst.deviation_oracle([]) == 0


def test_deviation_oracle_single_items_with_loose_band():
    # with k^2/n dominating, singletons stay quiet wheither way
    inst = PlantedGoldInstance.from_gold(16, [0, 1, 2, 3], 0.5)
    # center = 4/16 = 0.25, slack = 0.5*(0.25 + 1.0) = 0.625: band [-0.375, 0.875]
    assert inst.deviation_oracle([0]) == 1      # g=1 above 0.875
    assert inst.deviation_oracle([5]) == 0      # g=0 inside


def test_noisy_oracle_values():
    inst = PlantedGoldInstance.from_gold(10, [0, 1], 0.2)
    # quiet query: k + |S|
    assert inst.noisy_coverage_oracle(range(10)) == Fraction(12)
    # deviating query: the true value
    assert inst.noisy_coverage_oracle([0, 1]) == inst.true_coverage([0, 1])
    with pytest.raises(ConfigError):
        inst.noisy_coverage_oracle([])


def test_oracles_invariant_under_relabeling():
    base = PlantedGoldInstance.from_gold(12, [1, 4, 9], 0.15)
    perm = [7, 0, 3, 11, 5, 1, 10, 2, 8, 4, 6, 9]
    relabeled = PlantedGoldInstance.from_gold(
        12, [perm[i] for i in base.audit_gold()], 0.15)
    for r in range(1, 5):
        for combo in itertools.combinations(range(12), r):
            image = [perm[i] for i in combo]
            assert (base.deviation_oracle(combo)
                    == relabeled.deviation_oracle(image))
            assert (base.noisy_coverage_oracle(combo)
                    == relabeled.noisy_coverage_oracle(image))


def test_validity_zero_violations():
    inst = PlantedGoldInstance(60, 6, 0.1, seed=3)
    report = verify_oracle_validity(inst, trials=2000, seed=1)
    assert report.ok
    assert report.trials == 2000
    assert report.violations == ()
    assert report.eps_prime == inst.eps_prime


def test_validity_trivial_cases():
    inst = PlantedGoldInstance(5, 2, 0.3, seed=0)
    assert verify_oracle_validity(inst, trials=0).ok
    with pytest.raises(ConfigError):
        verify_oracle_validity(inst, trials=-1)
    # n_items=1 forces every query to be the full universe
    tiny = PlantedGoldInstance(1, 1, 0.5, seed=0)
    assert verify_oracle_validity(tiny, trials=50).ok


def test_demo_validation_and_budget_zero():
    inst = PlantedGoldInstance(20, 4, 0.2, seed=5)
    with pytest.raises(ConfigError):
        query_counter_demo(inst, "clairvoyant", 10)
    with pytest.raises(ConfigError):
        query_counter_demo(inst, "random_subsets", -1)
    for strategy in STRATEGIES:
        report = query_counter_demo(inst, strategy, 0)
        assert report.queries_used == 0
        assert not report.deviation_found
        assert report.best_ratio == 0.0
        assert report.best_query_size is None


def test_demo_respects_budget_and_is_deterministic():
    inst = PlantedGoldInstance(30, 3, 0.2, seed=7)
    for strategy in STRATEGIES:
        first = query_counter_demo(inst, strategy, 40, seed=2)
        second = query_counter_demo(inst, strategy, 40, seed=2)
        assert first == second
        assert first.queries_used <= 40
        assert 0.0 <= first.best_ratio <= 1.0


def test_demo_random_strategy_stops_on_deviation():
    # eps tiny: almost any random query deviates, so the loop stops early
    inst = PlantedGoldInstance(40, 10, 0.001, seed=1)
    report = query_counter_demo(inst, "random_subsets", 500, seed=3)
    assert report.deviation_found
    assert report.queries_used < 500


def test_demo_greedy_ties_go_to_smallest_id():
    # in the hiding regime (eps * k^2/n >= 1) every greedy query stays quiet,
    # all candidates tie at k + |S|, and greedy holds the smallest item ids:
    # four full rounds over 16, 15, 14, 13 candidates
    inst = PlantedGoldInstance.from_gold(16, [12, 13, 14, 15], 0.7)
    report = query_counter_demo(inst, "greedy_via_noisy", 1000, seed=0)
    assert report.queries_used == 16 + 15 + 14 + 13
    assert not report.deviation_found
    # the audited best is a single-gold candidate probe: (k + n/k) / (k + n)
    assert report.best_ratio == pytest.approx((4 + 16 / 4) / 20)
    assert report.best_query_size == 1


def test_demo_greedy_cannot_steer_toward_gold_when_hidden():
    # gold at high ids, band wide enough that no greedy query ever deviates:
    # the value oracle leaks nothing, so the best audited ratio stays at the
    # single-accidental-hit level instead of approaching 1
    inst = PlantedGoldInstance.from_gold(50, range(40, 50), 0.6)
    report = query_counter_demo(inst, "greedy_via_noisy", 10_000, seed=4)
    assert not report.deviation_found
    assert report.best_ratio == pytest.approx((10 + 50 / 10) / 60)
