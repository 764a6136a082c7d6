"""Coverage solvers over instances, views, and sketches.

Every solver runs on a `SetSystem` (see `instance`); instances, views and
sketches each carry theirs as `.system`. Selection reads only popcounts, so
the order of positions never matters: largest marginal gain, ties broken by
smallest set id. Exhaustive oracles sit at the bottom, guarded against
blowing up.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, GuardExceededError, IdRangeError, StateError
from .hashing import derive_seed
from .instance import (CoverageInstance, Edge, EdgeStream, SetSystem,
                       edge_blocks, materialize_system)
from .sketch import (CoverageEstimate, Sketch, SketchParams, SubgraphView,
                     build_sketch_from_stream, estimate_coverage, recap_sketch)

BRUTE_FORCE_GUARD = 10_000_000


def as_set_system(target) -> SetSystem:
    """The SetSystem of an instance, subgraph view, or sketch.

    For sketches and views the universe is the retained elements only, in
    their stored order; coverage counts on the adapted system are raw
    (unscaled) retained counts.
    """
    if isinstance(target, SetSystem):
        return target
    if isinstance(target, (CoverageInstance, Sketch, SubgraphView)):
        return target.system
    raise TypeError(f"cannot adapt {type(target).__name__} to a SetSystem")


class _Reject:
    """Sentinel returned by setcover_probe when the size guess is refused."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "REJECT"

    def __bool__(self):
        return False


REJECT = _Reject()


@dataclass
class Solution:
    """Result of one solver run.

    covered_on_target counts universe items of whatever the solver ran on
    (retained elements for sketches, true elements for instances); it is None
    for solvers that never see a target graph, like the distinct-count
    enumeration baseline. estimate carries the threshold-scaled value when a
    sketch was involved.
    """

    chosen: tuple[int, ...]
    covered_on_target: int | None
    gains: tuple[int, ...]
    estimate: CoverageEstimate | None = None
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.chosen)


def _lazy_greedy(system: SetSystem, budget: int | None, *,
                 until_covered: bool = False) -> tuple[list[int], list[int], int]:
    """Lazy greedy: identical picks to naive greedy, fewer gain evaluations.

    Heap keys are (-gain, id); a popped entry is re-evaluated and either
    reinserted (stale) or accepted, which preserves the exact
    largest-gain-smallest-id order because gains only ever decrease.
    Returns (chosen, gains, covered_mask).
    """
    masks = system.masks
    heap = [(-masks[u].bit_count(), u) for u in range(system.n)]
    heapq.heapify(heap)
    covered = 0
    full = (1 << system.universe) - 1
    chosen: list[int] = []
    gains: list[int] = []
    while heap:
        if budget is not None and len(chosen) >= budget:
            break
        if until_covered and covered == full:
            break
        neg_gain, u = heapq.heappop(heap)
        gain = (masks[u] & ~covered).bit_count()
        if gain != -neg_gain:
            heapq.heappush(heap, (-gain, u))
            continue
        if until_covered and gain == 0:
            break
        assert not gains or gain <= gains[-1], "marginal gains must be non-increasing"
        chosen.append(u)
        gains.append(gain)
        covered |= masks[u]
    return chosen, gains, covered


def greedy_kcover(target, k: int) -> Solution:
    """Pick k sets greedily to maximize coverage (1 - 1/e guarantee).

    When fewer than k sets have positive marginal gain, the remaining picks
    pad with zero-gain unused sets in ascending id order; the chosen tuple
    always has min(k, n) entries.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    system = as_set_system(target)
    budget = min(k, system.n)
    chosen, gains, covered = _lazy_greedy(system, budget)
    sol = Solution(chosen=tuple(chosen), covered_on_target=covered.bit_count(),
                   gains=tuple(gains))
    if isinstance(target, Sketch):
        sol.estimate = estimate_coverage(target, sol.chosen)
    return sol


def greedy_setcover(target) -> Solution:
    """Greedy picks until nothing uncovered remains (or no set helps)."""
    system = as_set_system(target)
    chosen, gains, covered = _lazy_greedy(system, None, until_covered=True)
    return Solution(chosen=tuple(chosen), covered_on_target=covered.bit_count(),
                    gains=tuple(gains))


def threshold_greedy(target, k: int, eps_prime: float) -> Solution:
    """Descending-threshold greedy: accept any set whose gain meets the bar.

    The bar starts at the largest set size d and decays by (1 - eps_prime)
    per round until it drops below (eps_prime / n) * d or k sets are chosen.
    One pass per round scans set ids in ascending order, so picks are
    deterministic; no zero-gain padding is applied.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not 0.0 < eps_prime < 1.0:
        raise ConfigError(f"eps_prime must lie in (0, 1), got {eps_prime}")
    system = as_set_system(target)
    d = max((mask.bit_count() for mask in system.masks), default=0)
    chosen: list[int] = []
    gains: list[int] = []
    covered = 0
    if d > 0:
        used = [False] * system.n
        w = float(d)
        floor = (eps_prime / system.n) * d
        while w >= floor and len(chosen) < k:
            for u in range(system.n):
                if used[u] or len(chosen) >= k:
                    continue
                gain = (system.masks[u] & ~covered).bit_count()
                if gain >= w:
                    used[u] = True
                    chosen.append(u)
                    gains.append(gain)
                    covered |= system.masks[u]
            w *= 1.0 - eps_prime
    sol = Solution(chosen=tuple(chosen), covered_on_target=covered.bit_count(),
                   gains=tuple(gains))
    if isinstance(target, Sketch):
        sol.estimate = estimate_coverage(target, sol.chosen)
    return sol


# ---------------------------------------------------------------------------
# Streaming k-cover


def kcover_via_sketch(edges: Iterable[Edge], n: int, k: int, eps: float,
                      seed: int, *, m_hint: int = 2,
                      params: SketchParams | None = None) -> Solution:
    """One-pass k-cover: sketch the stream, then run greedy on the sketch.

    The total error budget eps splits as eps' = eps / 12 for the sketch, with
    confidence exponent 2 + ln n; pass `params` to override the derived
    budgets (structure of the run is otherwise identical).
    """
    if not 0.0 < eps <= 2.4:
        raise ConfigError(f"eps must lie in (0, 2.4] so eps/12 <= 1/5, got {eps}")
    if params is None:
        params = SketchParams.derive(n=n, k=k, eps=eps / 12.0,
                                     delta2=2.0 + math.log(max(n, 1)),
                                     m_hint=m_hint)
    sk = build_sketch_from_stream(edges, params, seed)
    sol = greedy_kcover(sk, k)
    sol.meta.update({
        "eps": eps,
        "sketch_eps": params.eps,
        "delta2": params.delta2,
        "edge_budget": params.edge_budget,
        "degree_cap": params.degree_cap,
        "retained_elements": sk.element_count,
        "retained_edges": sk.edge_total,
        "threshold": sk.threshold,
        "builder_stats": sk.stats.as_dict(),
    })
    return sol


# ---------------------------------------------------------------------------
# Set cover with outliers


@dataclass(frozen=True)
class OutlierParams:
    """Inputs and derived constants for the outlier set-cover ladder.

    eps_prime and lambda_prime split the allowed uncovered fraction between
    estimation error and true outliers; c_prime inflates the confidence to
    survive a union bound over the ladder's probes.
    """

    eps: float
    lam: float
    c: float
    n: int
    eps_prime: float
    lambda_prime: float
    c_prime: float

    @classmethod
    def derive(cls, eps: float, lam: float, c: float, n: int) -> "OutlierParams":
        if not 0.0 < eps <= 1.0:
            raise ConfigError(f"eps must lie in (0, 1], got {eps}")
        if not 0.0 < lam <= 1.0 / math.e:
            raise ConfigError(f"lambda must lie in (0, 1/e], got {lam}")
        if c < 1.0:
            raise ConfigError(f"confidence multiplier must be >= 1, got {c}")
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        shrink = math.exp(-eps / 2.0)
        if n > 1:
            rounds = math.ceil(math.log(n) / math.log(1.0 + eps / 3.0))
        else:
            rounds = 0
        return cls(eps=eps, lam=lam, c=c, n=n,
                   eps_prime=lam * (1.0 - shrink),
                   lambda_prime=lam * shrink,
                   c_prime=max(1.0, c * rounds))


def probe_params(n: int, k_prime: float, eps_prime: float, lambda_prime: float,
                 c_prime: float) -> tuple[SketchParams, int]:
    """Sketch params and pick budget for one set-cover probe at guess k_prime."""
    if k_prime <= 0:
        raise ConfigError(f"k_prime must be positive, got {k_prime}")
    if not 0.0 < eps_prime < 1.0:
        raise ConfigError(f"eps_prime must lie in (0, 1), got {eps_prime}")
    if not 0.0 < lambda_prime <= 1.0 / math.e:
        raise ConfigError(f"lambda_prime must lie in (0, 1/e], got {lambda_prime}")
    if c_prime < 1.0:
        raise ConfigError(f"c_prime must be >= 1, got {c_prime}")
    spread = math.log(1.0 / lambda_prime)
    eps = eps_prime / (13.0 * spread)
    pick_budget = math.ceil(k_prime * spread)
    if n > 1:
        rounds = math.ceil(math.log(n) / math.log(1.0 + eps))
    else:
        rounds = 1
    delta2 = max(1.0, rounds * (math.log(c_prime * n) + 2.0))
    params = SketchParams.derive(n=n, k=pick_budget, eps=eps, delta2=delta2)
    return params, pick_budget


def probe_on_sketch(sk: Sketch, pick_budget: int, eps: float,
                    lambda_prime: float) -> Solution | _Reject:
    """Accept/reject a size guess given its finalized probe sketch.

    Greedy takes pick_budget sets; the guess is accepted iff the covered
    fraction of retained elements reaches 1 - lambda_prime - eps*ln(1/lambda_prime),
    compared exactly in rationals. REJECT is a value, not an error.
    """
    retained = sk.element_count
    sol = greedy_kcover(sk, pick_budget) if retained else Solution((), 0, ())
    bar = (Fraction(1)
           - Fraction(lambda_prime)
           - Fraction(eps) * Fraction(math.log(1.0 / lambda_prime)))
    if retained:
        ok = Fraction(sol.covered_on_target, retained) >= bar
        fraction = sol.covered_on_target / retained
    else:
        ok = True
        fraction = 1.0
    if not ok:
        return REJECT
    sol.estimate = estimate_coverage(sk, sol.chosen) if retained else None
    sol.meta.update({"pick_budget": pick_budget,
                     "accept_bar": float(bar),
                     "covered_fraction": fraction,
                     "retained": retained})
    return sol


def setcover_probe(edges_or_sketch, n: int, k_prime: float,
                   eps_prime: float, lambda_prime: float, c_prime: float,
                   seed: int) -> Solution | _Reject:
    """Single probe: can ~k_prime sets cover a 1 - lambda_prime fraction?

    Sketches the stream at the probe's derived budgets (or reuses a prebuilt
    sketch passed in its place), greedily picks ceil(k_prime * ln(1/lambda_prime))
    sets, and accepts or REJECTs on the covered fraction of retained elements.
    A REJECT certifies (with the probe's confidence) that no k_prime sets
    cover everything.
    """
    params, pick_budget = probe_params(n, k_prime, eps_prime, lambda_prime, c_prime)
    if isinstance(edges_or_sketch, Sketch):
        sk = edges_or_sketch
        if sk.params.n != n:
            raise ConfigError(f"sketch built for n={sk.params.n}, probe expects n={n}")
    else:
        sk = build_sketch_from_stream(edges_or_sketch, params, seed)
    result = probe_on_sketch(sk, pick_budget, params.eps, lambda_prime)
    if result is not REJECT:
        result.meta["k_prime"] = k_prime
    return result


def _as_source(source) -> Callable[[], Iterable[Edge]]:
    """A replayable source: a callable returning a fresh edge iterable, or a
    re-iterable collection (read in place, not copied)."""
    if callable(source):
        return source
    if isinstance(source, EdgeStream) or iter(source) is source:
        raise ConfigError("a one-shot edge iterator cannot be replayed; pass "
                          "a list or a callable returning a fresh iterator")
    return lambda: iter(source)


def _ladder(n: int, eps: float) -> list[float]:
    """Geometric size guesses (1 + eps/3)^j, final level pinned at n."""
    levels = []
    k_prime = 1.0
    while True:
        k_prime *= 1.0 + eps / 3.0
        if k_prime >= n:
            levels.append(float(n))
            break
        levels.append(k_prime)
    return levels


def setcover_outliers(source, n: int, opts: OutlierParams, seed: int) -> Solution:
    """Set cover leaving at most a lambda fraction uncovered.

    Walks the geometric ladder of size guesses and returns the first accepted
    probe's solution; the last level, k' = n, picks every set and always
    accepts. The levels differ only in cap and budget, so one pass
    over `source` (an edge iterable, or a callable returning one) builds a
    single base sketch under derive_seed(seed, 0): cap c_max, the largest
    level cap, and budget max over levels of B * ceil(c_max / c), which
    retains every level's hash prefix because min(d, c) >= (c / c_max) *
    min(d, c_max). Each level's probe sketch is `recap_sketch` of the base,
    so the pass holds B * ceil(c_max / c_min) + c_max edges plus one block.
    meta["builder_stats"] carries the base build's counters.
    """
    if opts.n != n:
        raise ConfigError(f"opts derived for n={opts.n}, called with n={n}")
    levels = _ladder(n, opts.eps)
    configs = [probe_params(n, k_prime, opts.eps_prime, opts.lambda_prime,
                            opts.c_prime) for k_prime in levels]
    top = max(params.degree_cap for params, _ in configs)
    base_params = replace(configs[0][0], degree_cap=top, edge_budget=max(
        params.edge_budget * math.ceil(top / params.degree_cap)
        for params, _ in configs))
    edges = source() if callable(source) else source
    base = build_sketch_from_stream(edges, base_params, derive_seed(seed, 0))
    for idx, (k_prime, (params, pick_budget)) in enumerate(zip(levels, configs)):
        sk = recap_sketch(base, params)
        result = probe_on_sketch(sk, pick_budget, params.eps, opts.lambda_prime)
        if result is not REJECT:
            result.meta.update(k_prime=k_prime, ladder_level=idx,
                               levels_total=len(levels),
                               builder_stats=base.stats.as_dict())
            return result
    raise StateError("the k'=n level picks every set, so it cannot reject")


# ---------------------------------------------------------------------------
# Multi-pass exact set cover


@dataclass(frozen=True)
class MultipassParams:
    """Derived constants for r-pass set cover.

    lam = m^(-1/(2+r)) is the per-iteration outlier fraction; r >= 2 requires
    m >= e^(2+r) so lam stays within the outlier solver's domain. Pass budget
    is exactly 2(r-1)+1 stream openings.
    """

    r: int
    m: int
    c: float
    lam: float
    c_prime: float

    @property
    def pass_budget(self) -> int:
        return 2 * (self.r - 1) + 1

    @classmethod
    def derive(cls, r: int, m: int, c: float = 1.0) -> "MultipassParams":
        if r < 1:
            raise ConfigError(f"r must be >= 1, got {r}")
        if m < 1:
            raise ConfigError(f"m must be >= 1, got {m}")
        r_max = max(1, math.ceil(math.log(m)))
        if r > r_max:
            raise ConfigError(f"r must lie in [1, ceil(ln m) = {r_max}], got {r}")
        if c < 1.0:
            raise ConfigError(f"confidence multiplier must be >= 1, got {c}")
        lam = m ** (-1.0 / (2.0 + r))
        if r >= 2 and lam > 1.0 / math.e:
            need = math.ceil(math.e ** (2.0 + r))
            raise ConfigError(
                f"r={r} needs m >= {need} so the derived outlier fraction "
                f"{lam:.4f} stays within (0, 1/e]; got m={m}")
        return cls(r=r, m=m, c=c, lam=lam, c_prime=max(0.0, (r - 1) * c))


def setcover_multipass(source, n: int, m: int, r: int, eps: float, seed: int, *,
                       c: float = 1.0) -> Solution:
    """Exact set cover in 2(r-1)+1 passes over the edge stream.

    Each of the r-1 iterations runs the outlier solver (one pass) on the
    residual stream and then marks what its picks covered (second pass); the
    final pass materializes the leftover and covers it greedily. r=1
    degenerates to classic single-pass-materialize greedy set cover. The
    chosen tuple is duplicate-free in first-pick order. `source` must be
    replayable: a callable returning a fresh edge iterable, or a re-iterable
    collection such as a list; a one-shot iterator raises ConfigError.
    """
    if eps <= 0.0 or eps > 1.0:
        raise ConfigError(f"eps must lie in (0, 1], got {eps}")
    params = MultipassParams.derive(r=r, m=m, c=c)
    src = _as_source(source)
    covered = np.zeros(m, dtype=bool)
    chosen: dict[int, None] = {}     # picks in first-pick order
    iterations = []
    passes = 0

    def checked_blocks():
        for u, v in edge_blocks(src()):
            if u.size and (u.min() < 0 or u.max() >= n
                           or v.min() < 0 or v.max() >= m):
                i = int(np.argmax((u < 0) | (u >= n) | (v < 0) | (v >= m)))
                if not 0 <= u[i] < n:
                    raise IdRangeError(f"set id {u[i]} outside [0, {n})")
                raise IdRangeError(f"element id {v[i]} outside [0, {m})")
            yield u, v

    def residual_blocks():
        for u, v in checked_blocks():
            keep = ~covered[v]
            yield u[keep], v[keep]

    for i in range(1, r):
        opts = OutlierParams.derive(eps=eps, lam=params.lam,
                                    c=max(1.0, params.c_prime), n=n)
        passes += 1
        sol_i = setcover_outliers(lambda: EdgeStream(blocks=residual_blocks()),
                                  n, opts, derive_seed(seed, i))
        picks = np.array(sorted(set(sol_i.chosen)), dtype=np.int64)
        passes += 1
        before = covered.copy()
        uncovered = np.zeros(m, dtype=bool)
        for u, v in checked_blocks():
            fresh = ~before[v]
            uncovered[v[fresh]] = True
            covered[v[fresh & np.isin(u, picks)]] = True
        chosen.update(dict.fromkeys(sol_i.chosen))
        uncovered_before = int(np.count_nonzero(uncovered))
        newly = int(np.count_nonzero(covered & ~before))
        iterations.append({"k_prime": sol_i.meta.get("k_prime"),
                           "picked": len(sol_i.chosen),
                           "uncovered_before": uncovered_before,
                           "uncovered_after": uncovered_before - newly,
                           "newly_covered": newly})

    passes += 1
    system = materialize_system(EdgeStream(blocks=residual_blocks()), n)
    if system.universe:
        tail = greedy_setcover(system)
        if tail.covered_on_target < system.universe:
            raise StateError("final pass could not cover the residual")
        chosen.update(dict.fromkeys(tail.chosen))

    total_covered = int(np.count_nonzero(covered)) + system.universe
    sol = Solution(chosen=tuple(chosen), covered_on_target=total_covered,
                   gains=())
    sol.meta.update({"r": r, "lam": params.lam, "passes": passes,
                     "pass_budget": params.pass_budget,
                     "iterations": iterations,
                     "residual_final": system.universe})
    assert passes == params.pass_budget
    return sol


# ---------------------------------------------------------------------------
# Exhaustive oracles


def brute_force_kcover(target, k: int, *,
                       guard: int = BRUTE_FORCE_GUARD) -> tuple[int, tuple[int, ...]]:
    """Exact max-k-coverage by enumeration; ties go to the lexicographically
    first combination. Guarded by comb(n, k) <= guard."""
    system = as_set_system(target)
    if not 1 <= k <= system.n:
        raise ConfigError(f"k must lie in [1, n={system.n}], got {k}")
    work = math.comb(system.n, k)
    if work > guard:
        raise GuardExceededError(f"comb({system.n}, {k}) = {work} exceeds guard {guard}")
    masks = system.masks
    if k == 1:
        # the single sets in order: the first maximum popcount wins the tie
        counts = [mask.bit_count() for mask in masks]
        best_value = max(counts)
        return best_value, (counts.index(best_value),)
    best_value = -1
    best_combo: tuple[int, ...] = ()
    for combo in itertools.combinations(range(system.n), k):
        mask = 0
        for u in combo:
            mask |= masks[u]
        value = mask.bit_count()
        if value > best_value:
            best_value = value
            best_combo = combo
    return best_value, best_combo


def brute_force_setcover(target, lam: float = 0.0, *,
                         guard: int = BRUTE_FORCE_GUARD) -> tuple[int, tuple[int, ...]]:
    """Smallest family covering at least ceil((1 - lam) * universe) elements.

    Enumerates families in (size, lexicographic) order, so the witness is the
    first optimum. Guarded by 2^n <= guard.
    """
    system = as_set_system(target)
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lam must lie in [0, 1], got {lam}")
    if 2 ** system.n > guard:
        raise GuardExceededError(f"2^{system.n} exceeds guard {guard}")
    goal = math.ceil(Fraction(system.universe) * (Fraction(1) - Fraction(lam)))
    if goal <= 0:
        return 0, ()
    masks = system.masks
    for size in range(0, system.n + 1):
        for combo in itertools.combinations(range(system.n), size):
            mask = 0
            for u in combo:
                mask |= masks[u]
            if mask.bit_count() >= goal:
                return size, combo
    raise StateError("no family covers the goal; the universe has an uncoverable element")
