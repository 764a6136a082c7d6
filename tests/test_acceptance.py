"""Acceptance suite: eleven scaled statistical and property checks.

One test per criterion; each prints a single `criterion NN: PASS/FAIL`
line (run with -s to watch them stream by). Several checks are statistical
over fixed seed ranges, so every run sees the same draws.
"""

import io
import math
import random
import statistics
import time

from covsketch import (CoverageInstance, OutlierParams, PlantedGoldInstance,
                       SketchParams, StreamingSketchBuilder, brute_force_kcover,
                       brute_force_setcover, build_per_set_sketches,
                       build_sketch_from_stream, build_sketch_offline,
                       gen_disjointness, gen_planted_cover, gen_random,
                       greedy_kcover, kcover_via_l0, kcover_via_sketch,
                       merge_sketches, random_edge_stream, sample_subgraph,
                       save_sketch, setcover_multipass, setcover_outliers,
                       setcover_probe, verify_oracle_validity)
from covsketch.hashing import derive_seed


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_greedy_guarantee_vs_brute_force():
    rng = random.Random(101)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        m = rng.randint(1, 40)
        k = rng.randint(1, min(4, n))
        inst = gen_random(n, m, rng.uniform(0.1, 0.7), rng.randrange(2 ** 32))
        sol = greedy_kcover(inst, k)
        opt, _ = brute_force_kcover(inst, k)
        if sol.covered_on_target < (1.0 - 1.0 / math.e) * opt - 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, violations == 0 and elapsed < 30.0,
             f"0 of 200 instances below (1-1/e)*opt; {elapsed:.1f}s < 30s"
             if violations == 0 else f"{violations} violations")


def test_criterion_02_subsample_estimator_fidelity():
    # one small probe set against seven large ones, so the absolute
    # tolerance 0.15*opt is wide while the estimate distribution is not
    edges = [(0, e) for e in range(60)]
    for j in range(1, 8):
        edges.extend((j, ((j - 1) * 70 + t) % 500) for t in range(300))
    inst = CoverageInstance.from_edges(8, 500, edges)
    truth = inst.coverage([0])
    opt, _ = brute_force_kcover(inst, 1)
    assert truth == 60 and opt == 300

    t0 = time.perf_counter()
    p = 0.2
    estimates = [sample_subgraph(inst, p, seed).covered_count([0]) / p
                 for seed in range(1000)]
    elapsed = time.perf_counter() - t0

    mean = statistics.mean(estimates)
    se = statistics.stdev(estimates) / math.sqrt(len(estimates))
    mean_ok = abs(mean - truth) <= 3.0 * se
    misses = sum(abs(est - truth) > 0.15 * opt for est in estimates)
    tail_ok = misses / len(estimates) < 0.05
    _verdict(2, mean_ok and tail_ok and elapsed < 60.0,
             f"mean {mean:.2f} vs {truth} (|diff| <= 3*SE={3 * se:.2f}), "
             f"{misses}/1000 beyond 0.15*opt, {elapsed:.1f}s < 60s")


def test_criterion_03_streaming_offline_byte_identity():
    rng = random.Random(303)
    mismatches = 0
    for _ in range(100):
        n = rng.randint(2, 10)
        m = rng.randint(5, 60)
        inst = gen_random(n, m, rng.uniform(0.2, 0.8), rng.randrange(2 ** 32))
        shuffled = list(inst.edges_by_element())
        rng.shuffle(shuffled)
        params = SketchParams.custom(
            n=n, k=rng.randint(1, n), eps=0.2, degree_cap=n,
            edge_budget=rng.randint(1, inst.edge_count + 5), m_hint=m)
        seed = rng.randrange(2 ** 32)
        offline = build_sketch_offline(inst, params, seed)
        streaming = build_sketch_from_stream(shuffled, params, seed)
        buf_a, buf_b = io.BytesIO(), io.BytesIO()
        save_sketch(offline, buf_a)
        save_sketch(streaming, buf_b)
        if buf_a.getvalue() != buf_b.getvalue():
            mismatches += 1
    _verdict(3, mismatches == 0,
             "100/100 shuffled streaming builds byte-identical to offline")


def test_criterion_04_budget_and_degree_bounds():
    rng = random.Random(404)
    binding = 0
    violations = 0
    for _ in range(500):
        n = rng.randint(1, 15)
        m = rng.randint(1, 120)
        inst = gen_random(n, m, rng.uniform(0.2, 0.9), rng.randrange(2 ** 32))
        cap = rng.randint(1, n)
        budget = rng.randint(1, max(1, inst.edge_count))
        params = SketchParams.custom(n=n, k=rng.randint(1, n), eps=0.2,
                                     degree_cap=cap, edge_budget=budget,
                                     m_hint=m)
        sk = build_sketch_from_stream(inst.edges_by_element(), params,
                                      rng.randrange(2 ** 32))
        if any(len(item.sets) > cap for item in sk.elements):
            violations += 1
        if not sk.full_retention:
            binding += 1
            if not budget <= sk.edge_total <= budget + cap:
                violations += 1
    _verdict(4, violations == 0 and binding >= 150,
             f"{binding}/500 budget-bound, all within [M, M+D], "
             f"all degrees <= D")


def test_criterion_05_one_pass_kcover_end_to_end():
    rng = random.Random(505)
    t0 = time.perf_counter()
    runs = 0
    good = 0
    floor = 1.0 - 1.0 / math.e - 0.6
    for i in range(50):
        n = rng.randint(2, 12)
        m = rng.randint(5, 60)
        k = rng.randint(1, min(3, n))
        inst = gen_random(n, m, rng.uniform(0.15, 0.6), rng.randrange(2 ** 32))
        opt, _ = brute_force_kcover(inst, k)
        for s in range(20):
            sol = kcover_via_sketch(inst.edges_by_element(), n, k, 0.6,
                                    derive_seed(505, runs), m_hint=m)
            runs += 1
            if inst.coverage(sol.chosen) >= floor * opt - 1e-9:
                good += 1
    elapsed = time.perf_counter() - t0
    _verdict(5, good >= 0.95 * runs and elapsed < 300.0,
             f"{good}/{runs} runs at ratio >= 1-1/e-0.6, {elapsed:.1f}s < 5min")


def test_criterion_06_outlier_cover_size_and_coverage():
    rng = random.Random(606)
    lam = 1.0 / math.e
    eps = 0.3
    good = 0
    for i in range(100):
        n = rng.randint(3, 10)
        m = rng.randint(20, 60)
        inst, _ = gen_planted_cover(n, m, rng.randint(1, 3),
                                    rng.randrange(2 ** 32))
        kappa, _ = brute_force_setcover(inst)
        opts = OutlierParams.derive(eps=eps, lam=lam, c=1.0, n=n)
        sol = setcover_outliers(inst.edges_by_element, n, opts,
                                derive_seed(606, i))
        bound = math.ceil((1.0 + eps) * (1.0 + eps / 3.0) * kappa
                          * math.log(1.0 / opts.lambda_prime))
        if sol.size <= bound and \
                inst.coverage(sol.chosen) >= (1.0 - lam) * m - 1e-9:
            good += 1
    _verdict(6, good >= 95,
             f"{good}/100 runs within size bound and coverage >= (1-lam)*m")


def test_criterion_07_multipass_cover_and_pass_count():
    rng = random.Random(707)
    eps = 0.3
    good = 0
    for i in range(100):
        n = rng.randint(3, 10)
        m = rng.randint(56, 64)
        inst, _ = gen_planted_cover(n, m, rng.randint(1, 3),
                                    rng.randrange(2 ** 32))
        kappa, _ = brute_force_setcover(inst)
        sol = setcover_multipass(inst.edges_by_element, n, m, 2, eps,
                                 derive_seed(707, i))
        bound = math.ceil((1.0 + eps) * kappa * math.log(m)) + kappa
        if inst.coverage(sol.chosen) == m and sol.size <= bound \
                and sol.meta["passes"] == 3:
            good += 1
    _verdict(7, good >= 95,
             f"{good}/100 runs fully covered within bound, 3 passes each")


def test_criterion_08_probe_never_rejects_feasible_guess():
    rng = random.Random(808)
    lam = 1.0 / math.e
    rejects = 0
    for i in range(100):
        n = rng.randint(3, 10)
        m = rng.randint(10, 50)
        inst, _ = gen_planted_cover(n, m, rng.randint(1, 3),
                                    rng.randrange(2 ** 32))
        kappa, _ = brute_force_setcover(inst)
        opts = OutlierParams.derive(eps=0.3, lam=lam, c=1.0, n=n)
        k_prime = rng.randint(kappa, n)
        res = setcover_probe(inst.edges_by_element(), n, k_prime,
                             opts.eps_prime, opts.lambda_prime, opts.c_prime,
                             derive_seed(808, i))
        if not res:
            rejects += 1
    _verdict(8, rejects == 0, "0/100 REJECTs at k' >= brute-forced minimum")


def test_criterion_09_distinct_count_baseline():
    rng = random.Random(909)
    law_breaks = 0
    for _ in range(1000):
        capacity = rng.randint(2, 48)
        reps = rng.randint(1, 3)
        seed = rng.randrange(2 ** 32)
        # one set's sketch of 0-120 random elements, a then b, drawn as before
        a, b = [build_per_set_sketches(
            [(0, rng.randrange(10 ** 6)) for _ in range(rng.randint(0, 120))],
            1, capacity, seed, reps)[0] for _ in range(2)]
        if merge_sketches(a, b) != merge_sketches(b, a):
            law_breaks += 1
        if merge_sketches(a, a) != a:
            law_breaks += 1

    truth = 10 ** 4
    accurate = 0
    for seed in range(200):
        sk = build_per_set_sketches([(0, v) for v in range(truth)], 1, 1024,
                                    seed)[0]
        if abs(sk.estimate() - truth) <= 0.10 * truth:
            accurate += 1

    # bank sized like the harness at eps=0.1: exact for every union here
    good = 0
    for i in range(100):
        inst = gen_random(8, 60, 0.35, derive_seed(910, i))
        bank = build_per_set_sketches(inst.edges_by_element(), 8, 400,
                                      derive_seed(911, i), reps=4)
        sol = kcover_via_l0(bank, 2)
        opt, _ = brute_force_kcover(inst, 2)
        if inst.coverage(sol.chosen) >= 0.9 * opt - 1e-9:
            good += 1
    _verdict(9, law_breaks == 0 and accurate >= 190 and good >= 95,
             f"merge laws 1000/1000, estimate within 10% on {accurate}/200, "
             f"k-cover >= 0.9*opt on {good}/100")


def test_criterion_10_hardness_apparatus():
    inst = PlantedGoldInstance(1000, 100, 0.1, seed=33)
    report = verify_oracle_validity(inst, 10_000, seed=34)
    validity_ok = report.violations == () and report.trials == 10_000

    opt_ok = inst.opt_value == 1100 \
        and inst.true_coverage(range(1000)) == 1100 \
        and PlantedGoldInstance.from_gold(10, [2, 7], 0.2).opt_value == 12

    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    for n in range(1, 13):
        subsets = [[i for i in range(n) if bits >> i & 1]
                   for bits in range(1 << n)]
        for abits in range(1, 1 << n):
            a_ids = subsets[abits]
            for bbits in range(1, 1 << n):
                pair = gen_disjointness(a_ids, subsets[bbits], n)
                opt, _ = brute_force_kcover(pair, 1)
                if opt != (2 if abits & bbits else 1):
                    mismatches += 1
                checked += 1
    elapsed = time.perf_counter() - t0
    sweep_ok = mismatches == 0 and checked == 22_353_252
    _verdict(10, validity_ok and opt_ok and sweep_ok,
             f"0/10000 oracle violations, opt identity k+n holds, "
             f"disjointness exhaustive {checked:,} pairs exact "
             f"({elapsed / 60.0:.1f}min)")


def test_criterion_11_space_independent_of_stream_length():
    budget = 5000
    cap = SketchParams.derive(n=100, k=5, eps=0.2).degree_cap
    assert cap == 161
    seen_counts = []
    retained = []
    ok = True
    for m in (10 ** 3, 10 ** 4, 10 ** 5):
        params = SketchParams.custom(n=100, k=5, eps=0.2, degree_cap=cap,
                                     edge_budget=budget, m_hint=m)
        builder = StreamingSketchBuilder(params, seed=77)
        builder.extend(random_edge_stream(100, m, 0.1, derive_seed(1111, m)))
        seen = builder.seen_edge_count
        sk = builder.finalize()
        seen_counts.append(seen)
        retained.append(sk.edge_total)
        ok &= budget <= sk.edge_total <= budget + cap and not sk.full_retention
    ok &= seen_counts[0] < seen_counts[1] < seen_counts[2]
    _verdict(11, ok,
             f"input edges {seen_counts} grow; retained {retained} all in "
             f"[{budget}, {budget + cap}]")
