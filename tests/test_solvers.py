"""Solvers: greedy variants, sketch-backed k-cover, probes, multipass, oracles."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsketch import solvers
from covsketch import (BRUTE_FORCE_GUARD, EdgeStream, MultipassParams,
                       OutlierParams, REJECT, SetSystem, Sketch, SketchParams,
                       StreamingSketchBuilder, as_set_system,
                       brute_force_kcover, brute_force_setcover,
                       build_sketch_from_stream, build_sketch_offline,
                       derive_seed, gen_planted_cover, gen_random,
                       greedy_kcover, greedy_setcover, kcover_via_sketch,
                       probe_params, probe_on_sketch, sample_subgraph,
                       setcover_multipass, setcover_outliers, setcover_probe)
from covsketch.errors import (ConfigError, GuardExceededError, IdRangeError,
                              StateError)
from covsketch.instance import CoverageInstance, edge_blocks, random_edge_blocks
from covsketch.solvers import _as_source, _ladder


def _naive_greedy(masks, universe, budget=None, until_covered=False):
    """Reference greedy: scan every set each round, ties to the smallest id."""
    n = len(masks)
    covered = 0
    full = (1 << universe) - 1
    used = set()
    chosen, gains = [], []
    while len(used) < n:
        if budget is not None and len(chosen) >= budget:
            break
        if until_covered and covered == full:
            break
        best_gain, best_u = -1, None
        for u in range(n):
            if u in used:
                continue
            gain = (masks[u] & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_u = gain, u
        if until_covered and best_gain == 0:
            break
        used.add(best_u)
        chosen.append(best_u)
        gains.append(best_gain)
        covered |= masks[best_u]
    return chosen, gains, covered


# ---------------------------------------------------------------------------
# Greedy k-cover


def test_greedy_kcover_hand_example():
    # sets: 0={0,1,2}, 1={2,3}, 2={3,4}
    sys = SetSystem(n=3, universe=5, masks=(0b00111, 0b01100, 0b11000))
    sol = greedy_kcover(sys, 2)
    assert sol.chosen == (0, 2)
    assert sol.covered_on_target == 5
    assert sol.gains == (3, 2)


def test_greedy_kcover_budget_at_least_n():
    inst = gen_random(5, 25, 0.3, seed=1)
    sol = greedy_kcover(inst, 50)
    assert sorted(sol.chosen) == list(range(5))
    assert sol.covered_on_target == inst.m
    assert sol.size == 5


def test_greedy_kcover_zero_gain_padding_ascending():
    # set 3 covers everything; remaining picks pad with unused ids 0,1,...
    masks = (0b0001, 0b0010, 0b0001, 0b1111)
    sys = SetSystem(n=4, universe=4, masks=masks)
    sol = greedy_kcover(sys, 3)
    assert sol.chosen == (3, 0, 1)
    assert sol.gains == (4, 0, 0)


def test_greedy_kcover_matches_naive_reference():
    for seed in range(15):
        inst = gen_random(8, 30, 0.25, seed=seed)
        for k in (1, 3, 8):
            sol = greedy_kcover(inst, k)
            chosen, gains, covered = _naive_greedy(inst.masks, inst.m, budget=k)
            assert list(sol.chosen) == chosen
            assert list(sol.gains) == gains
            assert sol.covered_on_target == covered.bit_count()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), universe=st.integers(0, 12))
def test_greedy_kcover_budgets_are_prefixes_of_one_sequence(data, n, universe):
    masks = data.draw(st.lists(st.integers(0, (1 << universe) - 1),
                               min_size=n, max_size=n))
    system = SetSystem(n=n, universe=universe, masks=tuple(masks))
    full = greedy_kcover(system, n)
    for budget in range(1, n + 3):
        sol = greedy_kcover(system, budget)
        assert sol.chosen == full.chosen[:budget]
        assert sol.gains == full.gains[:budget]
        assert sol.covered_on_target == system.coverage(sol.chosen)


def test_greedy_kcover_gains_non_increasing():
    for seed in range(10):
        inst = gen_random(10, 40, 0.2, seed=seed)
        sol = greedy_kcover(inst, 10)
        assert all(a >= b for a, b in zip(sol.gains, sol.gains[1:]))


def test_greedy_kcover_prefix_scaling():
    # cumulative coverage of the first j picks is >= (j/t) of the total
    for seed in range(10):
        inst = gen_random(9, 35, 0.3, seed=seed)
        sol = greedy_kcover(inst, 6)
        cum = list(itertools.accumulate(sol.gains))
        t = len(cum)
        for j in range(1, t + 1):
            assert cum[j - 1] * t >= j * cum[t - 1]


def test_greedy_kcover_rejects_bad_k():
    inst = gen_random(3, 6, 0.5, seed=0)
    with pytest.raises(ConfigError):
        greedy_kcover(inst, 0)


def test_greedy_extension_beats_scaled_optimum():
    # ceil(k ln(1/lam)) greedy picks cover at least (1 - lam) of Opt_k
    for seed in range(12):
        inst = gen_random(8, 24, 0.25, seed=seed)
        for k in (1, 2, 3):
            opt, _ = brute_force_kcover(inst, k)
            for lam in (1.0 / math.e, 0.25):
                picks = math.ceil(k * math.log(1.0 / lam))
                got = greedy_kcover(inst, picks).covered_on_target
                assert got >= (1.0 - lam) * opt - 1e-9


def test_greedy_setcover_full_and_partial():
    inst = gen_random(7, 30, 0.3, seed=2)
    sol = greedy_setcover(inst)
    assert sol.covered_on_target == inst.m
    assert inst.coverage(sol.chosen) == inst.m
    assert all(g > 0 for g in sol.gains)
    # an uncoverable universe position stops the loop without error
    partial = greedy_setcover(SetSystem(n=1, universe=2, masks=(0b01,)))
    assert partial.covered_on_target == 1


def test_greedy_setcover_matches_naive_reference():
    for seed in range(10):
        inst = gen_random(9, 40, 0.2, seed=seed)
        sol = greedy_setcover(inst)
        chosen, gains, covered = _naive_greedy(inst.masks, inst.m,
                                               until_covered=True)
        assert list(sol.chosen) == chosen
        assert list(sol.gains) == gains


# ---------------------------------------------------------------------------
# Set-system adapter


def test_as_set_system_instance_and_sketch_agree():
    inst = gen_random(6, 20, 0.4, seed=3)
    sys_inst = as_set_system(inst)
    assert sys_inst.masks == inst.masks
    params = SketchParams.custom(n=6, k=2, eps=0.2, degree_cap=6,
                                 edge_budget=10**6)
    sk = build_sketch_offline(inst, params, seed=1)
    sys_sk = as_set_system(sk)
    assert sys_sk.universe == inst.m
    for chosen in ([0], [2, 4]):
        mask = 0
        for u in chosen:
            mask |= sys_sk.masks[u]
        assert mask.bit_count() == inst.coverage(chosen)
    view = sample_subgraph(inst, 0.5, seed=2)
    sys_view = as_set_system(view)
    assert sys_view.universe == view.ids.size
    with pytest.raises(TypeError):
        as_set_system("nope")


# ---------------------------------------------------------------------------
# Sketch-backed k-cover


def test_kcover_via_sketch_full_retention_matches_exact():
    for seed in range(6):
        inst = gen_random(10, 40, 0.25, seed=seed)
        exact = greedy_kcover(inst, 3)
        sol = kcover_via_sketch(inst.edges_by_element(), inst.n, 3, 0.6, seed=seed)
        assert sol.meta["threshold"] == 1.0
        assert sol.chosen == exact.chosen
        assert sol.covered_on_target == exact.covered_on_target
        assert sol.estimate.scaled == float(exact.covered_on_target)


def test_kcover_via_sketch_single_covering_set():
    edges = [(2, e) for e in range(9)] + [(0, 0), (1, 3)]
    sol = kcover_via_sketch(edges, 3, 1, 1.2, seed=4)
    assert sol.chosen == (2,)


def test_kcover_via_sketch_eps_domain():
    edges = [(0, 0), (1, 1)]
    with pytest.raises(ConfigError):
        kcover_via_sketch(edges, 2, 1, 0.0, seed=0)
    with pytest.raises(ConfigError):
        kcover_via_sketch(edges, 2, 1, 2.5, seed=0)
    assert kcover_via_sketch(edges, 2, 1, 2.4, seed=0).size == 1


def test_kcover_via_sketch_meta_and_params_override():
    inst = gen_random(6, 200, 0.2, seed=7)
    params = SketchParams.custom(n=6, k=2, eps=0.05, degree_cap=6,
                                 edge_budget=60)
    sol = kcover_via_sketch(inst.edges_by_element(), 6, 2, 0.6, seed=3,
                            params=params)
    assert sol.meta["edge_budget"] == 60
    assert 60 <= sol.meta["retained_edges"] <= 66
    assert sol.meta["threshold"] < 1.0
    assert sol.estimate.scaled == sol.estimate.raw / sol.meta["threshold"]


# ---------------------------------------------------------------------------
# Outlier probes


def test_outlier_params_split_the_budget():
    opts = OutlierParams.derive(eps=0.3, lam=1.0 / math.e, c=2.0, n=50)
    shrink = math.exp(-0.15)
    assert opts.lambda_prime == pytest.approx(opts.lam * shrink)
    assert opts.eps_prime == pytest.approx(opts.lam * (1.0 - shrink))
    assert opts.eps_prime + opts.lambda_prime == pytest.approx(opts.lam)
    rounds = math.ceil(math.log(50) / math.log(1.1))
    assert opts.c_prime == pytest.approx(2.0 * rounds)


def test_outlier_params_domain():
    with pytest.raises(ConfigError):
        OutlierParams.derive(eps=0.0, lam=0.3, c=1.0, n=4)
    with pytest.raises(ConfigError):
        OutlierParams.derive(eps=0.3, lam=0.5, c=1.0, n=4)   # above 1/e
    with pytest.raises(ConfigError):
        OutlierParams.derive(eps=0.3, lam=0.3, c=0.5, n=4)
    with pytest.raises(ConfigError):
        OutlierParams.derive(eps=0.3, lam=0.3, c=1.0, n=0)


def test_probe_params_formula():
    n, k_prime, eps_prime, lambda_prime, c_prime = 20, 3.0, 0.1, 0.2, 4.0
    params, pick_budget = probe_params(n, k_prime, eps_prime, lambda_prime, c_prime)
    spread = math.log(1.0 / lambda_prime)
    assert pick_budget == math.ceil(k_prime * spread)
    assert params.eps == pytest.approx(eps_prime / (13.0 * spread))
    assert params.k == pick_budget
    with pytest.raises(ConfigError):
        probe_params(n, 0.0, eps_prime, lambda_prime, c_prime)
    with pytest.raises(ConfigError):
        probe_params(n, 1.0, eps_prime, 0.5, c_prime)


def test_probe_never_rejects_when_guess_suffices():
    lam = 1.0 / math.e
    for seed in range(8):
        inst, planted = gen_planted_cover(8, 30, 2, seed=seed)
        result = setcover_probe(inst.edges_by_element(), 8, float(len(planted)),
                                0.05, lam, 1.0, seed=seed)
        assert result is not REJECT
        assert result.meta["covered_fraction"] >= result.meta["accept_bar"]


def test_probe_at_full_ladder_never_rejects():
    for seed in range(5):
        inst = gen_random(6, 25, 0.3, seed=seed)
        result = setcover_probe(inst.edges_by_element(), 6, 6.0, 0.05,
                                1.0 / math.e, 1.0, seed=seed)
        assert result is not REJECT


def test_probe_deterministic_reject():
    # 10 singleton sets: one pick covers 10% << the accept bar
    edges = [(u, u) for u in range(10)]
    inst = CoverageInstance.from_edges(10, 10, edges)
    result = setcover_probe(inst.edges_by_element(), 10, 1.0, 0.05,
                            1.0 / math.e, 1.0, seed=0)
    assert result is REJECT
    assert not result
    assert repr(result) == "REJECT"


def test_probe_reuses_prebuilt_sketch():
    inst = gen_random(6, 30, 0.4, seed=2)
    params, pick_budget = probe_params(6, 2.0, 0.05, 1.0 / math.e, 1.0)
    sk = build_sketch_offline(inst, params, seed=9)
    via_stream = setcover_probe(inst.edges_by_element(), 6, 2.0, 0.05,
                                1.0 / math.e, 1.0, seed=9)
    via_sketch = setcover_probe(sk, 6, 2.0, 0.05, 1.0 / math.e, 1.0, seed=9)
    assert via_sketch.chosen == via_stream.chosen
    direct = probe_on_sketch(sk, pick_budget, params.eps, 1.0 / math.e)
    assert direct.chosen == via_sketch.chosen
    with pytest.raises(ConfigError):
        setcover_probe(sk, 7, 2.0, 0.05, 1.0 / math.e, 1.0, seed=9)


def test_probe_accepts_empty_sketch():
    params, pick_budget = probe_params(4, 1.0, 0.05, 1.0 / math.e, 1.0)
    empty = Sketch(params, 0, (), 1.0, 0)
    result = probe_on_sketch(empty, pick_budget, params.eps, 1.0 / math.e)
    assert result is not REJECT
    assert result.covered_on_target == 0


# ---------------------------------------------------------------------------
# Outlier set cover


def _per_level_ladder(edges, n, opts, seed):
    """The ladder as one streaming build per level, every level under
    derive_seed(seed, 0): the reference for the single-pass ladder."""
    levels = _ladder(n, opts.eps)
    for idx, k_prime in enumerate(levels):
        params, pick_budget = probe_params(n, k_prime, opts.eps_prime,
                                           opts.lambda_prime, opts.c_prime)
        sk = build_sketch_from_stream(edges, params, derive_seed(seed, 0))
        result = probe_on_sketch(sk, pick_budget, params.eps, opts.lambda_prime)
        if result is not REJECT:
            result.meta.update({"k_prime": k_prime, "ladder_level": idx,
                                "levels_total": len(levels)})
            return result
    raise AssertionError("the k'=n level accepts")


def _planted_or_random(seed):
    if seed % 2:
        return gen_planted_cover(10, 40 + seed, 1 + seed % 3, seed=seed)[0]
    return gen_random(8 + seed % 3, 40, 0.3, seed=seed)


def test_setcover_outliers_matches_per_level_oracle():
    for seed in range(8):
        inst = _planted_or_random(seed)
        edges = list(inst.edges_by_element())
        random.Random(seed).shuffle(edges)
        opts = OutlierParams.derive(eps=0.3, lam=1.0 / math.e, c=1.0, n=inst.n)
        sol = setcover_outliers(edges, inst.n, opts, seed)
        ref = _per_level_ladder(edges, inst.n, opts, seed)
        assert sol.chosen == ref.chosen
        assert sol.gains == ref.gains
        assert sol.covered_on_target == ref.covered_on_target
        assert sol.estimate == ref.estimate
        stats = sol.meta.pop("builder_stats")
        assert sol.meta == ref.meta
        assert stats["seen_edges"] == len(edges) and not stats["budget_bound"]


def test_setcover_outliers_reads_its_source_once(monkeypatch):
    inst = gen_random(9, 45, 0.3, seed=3)
    opens, builds = [0], [0]

    def src():
        opens[0] += 1
        return inst.edges_by_element()

    finalize = StreamingSketchBuilder.finalize

    def counted(builder):
        builds[0] += 1
        return finalize(builder)

    monkeypatch.setattr(StreamingSketchBuilder, "finalize", counted)
    opts = OutlierParams.derive(eps=0.3, lam=1.0 / math.e, c=1.0, n=9)
    sol = setcover_outliers(src, 9, opts, seed=3)
    assert sol.meta["ladder_level"] > 0
    assert opens[0] == 1 and builds[0] == 1
    one_shot = setcover_outliers(inst.edges_by_element(), 9, opts, seed=3)
    assert one_shot.chosen == sol.chosen


def test_setcover_outliers_binding_caps_match_per_level_oracle(monkeypatch):
    """Caps and budgets patched to bind and to change (or repeat) from level
    to level, so levels re-cap, share a sketch, or run greedy anew."""
    derived = probe_params
    accepted_above_zero = 0
    for seed in range(24):
        inst = _planted_or_random(seed)
        rng = random.Random(seed)
        lam = (1.0 / math.e, 0.1, 0.02)[seed % 3]
        opts = OutlierParams.derive(eps=0.3, lam=lam, c=1.0, n=inst.n)
        shapes, shape = {}, None
        for k_prime in _ladder(inst.n, opts.eps):
            if shape is None or rng.random() < 0.4:
                shape = (rng.choice([1, 2, 3, 40, 50]),
                         rng.choice([30, 80, 500]))
            shapes[k_prime] = shape

        def patched(n, k_prime, eps_prime, lambda_prime, c_prime):
            params, pick_budget = derived(n, k_prime, eps_prime, lambda_prime,
                                          c_prime)
            cap, budget = shapes[k_prime]
            return SketchParams.custom(
                n=n, k=pick_budget, eps=params.eps, degree_cap=cap,
                edge_budget=budget, delta2=params.delta2), pick_budget

        monkeypatch.setattr(solvers, "probe_params", patched)
        monkeypatch.setitem(globals(), "probe_params", patched)
        edges = list(inst.edges_by_element())
        sol = setcover_outliers(edges, inst.n, opts, seed)
        ref = _per_level_ladder(edges, inst.n, opts, seed)
        assert sol.chosen == ref.chosen
        assert sol.gains == ref.gains
        assert sol.covered_on_target == ref.covered_on_target
        assert sol.estimate == ref.estimate
        sol.meta.pop("builder_stats")
        assert sol.meta == ref.meta
        accepted_above_zero += sol.meta["ladder_level"] > 0
    assert accepted_above_zero


def test_setcover_outliers_recaps_and_runs_greedy_once(monkeypatch):
    calls = {"recap_sketch": 0, "_greedy_picks": 0}

    def counted(name):
        fn = getattr(solvers, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(solvers, name, call)

    counted("recap_sketch")
    counted("_greedy_picks")
    opts = OutlierParams.derive(eps=0.3, lam=1.0 / math.e, c=1.0, n=50)
    sol = setcover_outliers(
        lambda: EdgeStream(random_edge_blocks(50, 4000, 0.05, 1)), 50, opts, 1)
    assert sol.meta["ladder_level"] > 0
    assert calls == {"recap_sketch": 1, "_greedy_picks": 1}


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_setcover_outliers_memory_is_one_sketch():
    def stream():
        return EdgeStream(blocks=random_edge_blocks(50, 4000, 0.05, 1))

    opts = OutlierParams.derive(eps=0.3, lam=1.0 / math.e, c=1.0, n=50)
    params, _ = probe_params(50, 1.1, opts.eps_prime, opts.lambda_prime,
                             opts.c_prime)
    one = _peak_bytes(lambda: build_sketch_from_stream(stream(), params, 1).system)
    ladder = _peak_bytes(lambda: setcover_outliers(stream, 50, opts, seed=1))
    assert ladder < 2 * one


def test_setcover_outliers_coverage_floor():
    lam = 1.0 / math.e
    opts = OutlierParams.derive(eps=0.3, lam=lam, c=1.0, n=9)
    for seed in range(6):
        inst = gen_random(9, 45, 0.3, seed=seed)
        sol = setcover_outliers(inst.edges_by_element, 9, opts, seed)
        assert inst.coverage(sol.chosen) >= (1.0 - lam) * inst.m - 1e-9
        assert sol.meta["levels_total"] >= sol.meta["ladder_level"] + 1


def test_setcover_outliers_single_covering_set_size():
    eps, lam = 0.3, 1.0 / math.e
    opts = OutlierParams.derive(eps=eps, lam=lam, c=1.0, n=6)
    edges = [(3, e) for e in range(20)] + [(0, 0), (1, 1), (2, 2), (4, 3), (5, 4)]
    sol = setcover_outliers(edges, 6, opts, seed=5)
    first_budget = math.ceil((1.0 + eps / 3.0) * math.log(1.0 / opts.lambda_prime))
    assert 3 in sol.chosen
    assert sol.size <= first_budget
    assert sol.meta["ladder_level"] == 0


def test_setcover_outliers_planted_size_bound():
    eps, lam = 0.3, 1.0 / math.e
    for seed in range(8):
        inst, planted = gen_planted_cover(10, 30, 2, seed=seed)
        kappa, _ = brute_force_setcover(inst)
        opts = OutlierParams.derive(eps=eps, lam=lam, c=1.0, n=10)
        sol = setcover_outliers(inst.edges_by_element, 10, opts, seed)
        spread = math.log(1.0 / opts.lambda_prime)
        bound = math.ceil((1.0 + eps) * (1.0 + eps / 3.0) * kappa * spread)
        assert sol.size <= bound


def test_setcover_outliers_validation():
    opts = OutlierParams.derive(eps=0.3, lam=0.3, c=1.0, n=4)
    with pytest.raises(ConfigError):
        setcover_outliers([], 5, opts, seed=0)


def test_setcover_outliers_source_forms_agree():
    opts = OutlierParams.derive(eps=0.3, lam=1.0 / math.e, c=1.0, n=7)
    inst = gen_random(7, 35, 0.3, seed=4)
    edges = list(inst.edges_by_element())
    as_list = setcover_outliers(edges, 7, opts, seed=1)
    as_callable = setcover_outliers(lambda: iter(edges), 7, opts, seed=1)
    assert as_list.chosen == as_callable.chosen


# ---------------------------------------------------------------------------
# Multipass set cover


def test_multipass_params():
    p = MultipassParams.derive(r=2, m=60)
    assert p.lam == pytest.approx(60 ** -0.25)
    assert p.pass_budget == 3
    assert MultipassParams.derive(r=1, m=5).pass_budget == 1
    # identity behind the pass split: (r-1) doubled passes plus the final one
    for r in range(1, 11):
        assert Fraction(r - 1, 2 + r) + Fraction(3, 2 + r) == Fraction(r + 2, r + 2)


def test_multipass_params_domain():
    with pytest.raises(ConfigError):
        MultipassParams.derive(r=0, m=60)
    with pytest.raises(ConfigError):
        MultipassParams.derive(r=9, m=60)        # above ceil(ln m)
    with pytest.raises(ConfigError):
        MultipassParams.derive(r=2, m=50)        # lam would exceed 1/e
    with pytest.raises(ConfigError):
        MultipassParams.derive(r=2, m=60, c=0.2)


def test_multipass_r1_is_classic_greedy():
    for seed in range(5):
        inst = gen_random(9, 30, 0.3, seed=seed)
        edges = list(inst.edges_by_element())
        sol = setcover_multipass(edges, 9, 30, 1, 0.3, seed=seed)
        classic = greedy_setcover(inst)
        assert sol.chosen == classic.chosen
        assert sol.meta["passes"] == 1
        assert sol.covered_on_target == inst.m


def test_multipass_r2_covers_everything_with_exact_passes():
    for seed in range(5):
        inst = gen_random(10, 60, 0.25, seed=seed)
        edges = list(inst.edges_by_element())
        opens = [0]

        def src():
            opens[0] += 1
            return iter(edges)

        sol = setcover_multipass(src, 10, 60, 2, 0.3, seed=seed)
        assert sol.covered_on_target == inst.m
        assert inst.coverage(sol.chosen) == inst.m
        assert sol.meta["passes"] == sol.meta["pass_budget"] == 3
        assert opens[0] == 3
        assert len(set(sol.chosen)) == len(sol.chosen)


def test_multipass_iteration_contraction():
    # at these scales every probe retains everything, so each iteration
    # shrinks the uncovered pool by at least the outlier fraction
    for seed in range(5):
        inst = gen_random(10, 60, 0.25, seed=seed)
        sol = setcover_multipass(list(inst.edges_by_element()), 10, 60, 2,
                                 0.3, seed=seed)
        lam = sol.meta["lam"]
        for it in sol.meta["iterations"]:
            assert it["uncovered_after"] <= lam * it["uncovered_before"] + 1e-9
            assert it["uncovered_before"] - it["uncovered_after"] == it["newly_covered"]


def test_multipass_source_must_be_replayable():
    edges = [(0, 0), (1, 1)]
    with pytest.raises(ConfigError, match="one-shot"):
        setcover_multipass(iter(edges), 2, 2, 1, 0.3, seed=0)
    with pytest.raises(ConfigError, match="one-shot"):
        setcover_multipass((e for e in edges), 2, 2, 1, 0.3, seed=0)
    with pytest.raises(ConfigError, match="one-shot"):
        setcover_multipass(EdgeStream(edge_blocks(edges)), 2, 2, 1, 0.3, seed=0)
    src = _as_source(edges)
    edges.append((1, 2))              # read in place, not a copy
    assert list(src()) == list(src()) == edges


def test_multipass_domain_errors():
    edges = [(0, 0)]
    with pytest.raises(ConfigError):
        setcover_multipass(edges, 1, 1, 1, 0.0, seed=0)
    with pytest.raises(ConfigError):
        setcover_multipass(edges, 1, 1, 1, 1.5, seed=0)
    with pytest.raises(ConfigError):
        setcover_multipass(edges, 1, 50, 2, 0.3, seed=0)


def test_multipass_rejects_ids_outside_the_universe():
    with pytest.raises(IdRangeError, match="element id 700"):
        setcover_multipass([(0, 0), (1, 700)], n=2, m=400, r=1, eps=0.3, seed=0)
    with pytest.raises(IdRangeError, match="element id -1"):
        setcover_multipass([(0, 0), (1, -1)], n=2, m=400, r=1, eps=0.3, seed=0)
    with pytest.raises(IdRangeError, match="set id 2"):
        setcover_multipass([(0, 0), (2, 1)], n=2, m=400, r=1, eps=0.3, seed=0)
    edges = [(u, v) for v in range(400) for u in (v % 3, 3)] + [(0, 400)]
    with pytest.raises(IdRangeError, match="element id 400"):
        setcover_multipass(edges, n=4, m=400, r=2, eps=0.3, seed=0)


# ---------------------------------------------------------------------------
# Brute-force oracles


def test_brute_force_kcover_hand_example():
    sys = SetSystem(n=3, universe=4, masks=(0b0110, 0b1100, 0b1000))
    assert brute_force_kcover(sys, 2) == (3, (0, 1))
    assert brute_force_kcover(sys, 3) == (3, (0, 1, 2))


def test_brute_force_kcover_ties_lexicographic():
    sys = SetSystem(n=3, universe=2, masks=(0b01, 0b01, 0b10))
    value, combo = brute_force_kcover(sys, 1)
    assert (value, combo) == (1, (0,))


def test_brute_force_kcover_cross_check():
    for seed in range(10):
        inst = gen_random(7, 18, 0.3, seed=seed)
        for k in (1, 2, 3):
            value, combo = brute_force_kcover(inst, k)
            best = max(
                (len(set().union(*(inst.sets[u] for u in c))), tuple(c))
                for c in itertools.combinations(range(inst.n), k))
            assert value == best[0]
            assert inst.coverage(combo) == value


def test_brute_force_kcover_guard_and_domain():
    inst = gen_random(20, 10, 0.4, seed=0)
    with pytest.raises(GuardExceededError):
        brute_force_kcover(inst, 10, guard=1000)
    assert math.comb(20, 10) <= BRUTE_FORCE_GUARD
    with pytest.raises(ConfigError):
        brute_force_kcover(inst, 0)
    with pytest.raises(ConfigError):
        brute_force_kcover(inst, 21)


def test_brute_force_setcover_partition_and_outliers():
    sys = SetSystem(n=3, universe=6, masks=(0b000011, 0b001100, 0b110000))
    assert brute_force_setcover(sys) == (3, (0, 1, 2))
    assert brute_force_setcover(sys, lam=1.0) == (0, ())
    singles = SetSystem(n=4, universe=4, masks=(1, 2, 4, 8))
    assert brute_force_setcover(singles, lam=0.5) == (2, (0, 1))


def test_brute_force_setcover_planted():
    for seed in range(6):
        inst, planted = gen_planted_cover(7, 20, 3, seed=seed)
        size, combo = brute_force_setcover(inst)
        assert size <= len(planted)
        assert inst.coverage(combo) == inst.m


def test_brute_force_setcover_guard_domain_uncoverable():
    inst = gen_random(6, 10, 0.4, seed=1)
    with pytest.raises(GuardExceededError):
        brute_force_setcover(inst, guard=10)
    with pytest.raises(ConfigError):
        brute_force_setcover(inst, lam=-0.1)
    with pytest.raises(ConfigError):
        brute_force_setcover(inst, lam=1.1)
    with pytest.raises(StateError):
        brute_force_setcover(SetSystem(n=1, universe=2, masks=(0b01,)))


def test_brute_force_setcover_goal_uses_exact_rationals():
    singles = SetSystem(n=3, universe=3, masks=(1, 2, 4))
    # a true rational third makes the goal exactly 2
    size, _ = brute_force_setcover(singles, lam=Fraction(1, 3))
    assert size == 2
    # the float 1/3 sits just below the rational, so the exact goal is 3
    size, _ = brute_force_setcover(singles, lam=1.0 / 3.0)
    assert size == 3
