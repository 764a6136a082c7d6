"""Planted-deviation gadget: why coverage needs more than noisy value queries.

An instance hides k_gold "gold" items among n. The public oracles answer with
exact rational arithmetic: a deviation bit that fires only when a query's gold
count escapes a tolerance band around its expectation, and a noisy coverage
value that collapses to k + |S| whenever the bit is quiet. Since random-ish
queries essentially never leave the band, value-query strategies cannot steer
toward the gold set, which the demo harness makes measurable. The true
coverage formula k + (n/k) * Gold(S) is computed directly instead of
materializing n/k exclusive elements per gold item; n need not divide by k.

Items are integers (Python ints or numpy integer scalars) in [0, n_items);
any other item, such as a float, raises ConfigError. Each public oracle
validates its query once and answers through private helpers that take the
validated frozenset.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ConfigError, IdRangeError

STRATEGIES = ("random_subsets", "greedy_via_noisy")


class PlantedGoldInstance:
    """n_items with a uniformly drawn hidden subset of k_gold gold items.

    The gold set never leaks through the query oracles; audit accessors
    (audit_gold, gold_count, true_coverage) exist for tests and gated
    reporting only.
    """

    __slots__ = ("n_items", "k_gold", "eps", "seed", "_gold", "_eps_pq")

    def __init__(self, n_items: int, k_gold: int, eps: float, seed: int):
        _validate_shape(n_items, k_gold, eps)
        self.n_items = n_items
        self.k_gold = k_gold
        self.eps = eps
        self._eps_pq = Fraction(eps).as_integer_ratio()
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._gold = frozenset(
            rng.choice(n_items, size=k_gold, replace=False).tolist())

    @classmethod
    def from_gold(cls, n_items: int, gold: Iterable[int], eps: float
                  ) -> "PlantedGoldInstance":
        """Audit-level constructor with an explicit gold set (for tests).

        Gold items must be integers; a float raises ConfigError.
        """
        gold = _as_items(gold)
        _validate_shape(n_items, len(gold), eps)
        for i in (min(gold), max(gold)):
            if not 0 <= i < n_items:
                raise IdRangeError(f"gold item {i} outside [0, {n_items})")
        inst = cls.__new__(cls)
        inst.n_items = n_items
        inst.k_gold = len(gold)
        inst.eps = eps
        inst._eps_pq = Fraction(eps).as_integer_ratio()
        inst.seed = None
        inst._gold = gold
        return inst

    @property
    def eps_prime(self) -> float:
        """Approximation slack of the noisy oracle: twice the band eps."""
        return 2.0 * self.eps

    @property
    def opt_value(self) -> int:
        """True optimum of the implied coverage instance: k + n."""
        return self.k_gold + self.n_items

    def _clean(self, items: Iterable[int]) -> frozenset:
        """The query as a frozenset of in-range integer items."""
        s = _as_items(items)
        if s:
            lo, hi = min(s), max(s)
            if lo < 0 or hi >= self.n_items:
                bad = lo if lo < 0 else hi
                raise IdRangeError(f"item {bad} outside [0, {self.n_items})")
        return s

    # -- audit accessors (privileged; the CLI gates these behind --unsafe-audit)

    def audit_gold(self) -> frozenset:
        return self._gold

    def gold_count(self, items: Iterable[int]) -> int:
        """Exact |S intersect gold| of integer items. Audit-level: not
        available to strategies."""
        return len(self._clean(items) & self._gold)

    def true_coverage(self, items: Iterable[int]) -> Fraction:
        """Exact coverage value k + (n/k) * Gold(S) of a nonempty query of
        integer items."""
        return Fraction(self._scaled_true(self._nonempty(items)), self.k_gold)

    # -- public query interface

    def deviation_oracle(self, items: Iterable[int]) -> int:
        """1 iff the query's gold count escapes its tolerance band.

        Items are integers. The band is k|S|/n +- eps*(k|S|/n + k^2/n),
        tested exactly in integers; answers reveal a single bit.
        """
        return self._deviation(self._clean(items))

    def noisy_coverage_oracle(self, items: Iterable[int]) -> Fraction:
        """k + |S| while the deviation bit is quiet, the true value otherwise.

        Items are integers; the query must be nonempty.
        """
        return Fraction(self._scaled_noisy(self._nonempty(items)), self.k_gold)

    # -- the oracles on a validated query (a frozenset from _clean)

    def _nonempty(self, items: Iterable[int]) -> frozenset:
        s = self._clean(items)
        if not s:
            raise ConfigError("coverage is defined for nonempty queries only")
        return s

    def _deviation(self, s: frozenset) -> int:
        # |g - k|S|/n| <= eps*(k|S|/n + k^2/n), times n*q for eps = p/q
        p, q = self._eps_pq
        k_size = self.k_gold * len(s)
        off = len(s & self._gold) * self.n_items - k_size
        return 0 if abs(off) * q <= p * (k_size + self.k_gold * self.k_gold) else 1

    # k times the coverage values: integers, so no Fraction is built

    def _scaled_true(self, s: frozenset) -> int:
        return self.k_gold * self.k_gold + self.n_items * len(s & self._gold)

    def _scaled_noisy(self, s: frozenset) -> int:
        if self._deviation(s) == 0:
            return self.k_gold * (self.k_gold + len(s))
        return self._scaled_true(s)

    def __repr__(self):
        return (f"PlantedGoldInstance(n_items={self.n_items}, "
                f"k_gold={self.k_gold}, eps={self.eps})")


def _as_items(items: Iterable[int]) -> frozenset:
    """Items as a frozenset of Python ints; a non-integer raises ConfigError."""
    items = iter(items)  # a non-iterable still raises TypeError
    try:
        return frozenset(map(operator.index, items))
    except TypeError as exc:
        raise ConfigError(f"items must be integers: {exc}") from None


def _validate_shape(n_items, k_gold, eps):
    if n_items < 1:
        raise ConfigError(f"n_items must be >= 1, got {n_items}")
    if not 1 <= k_gold <= n_items:
        raise ConfigError(f"k_gold must lie in [1, n_items={n_items}], got {k_gold}")
    if not 0.0 < eps < 1.0:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")


@dataclass(frozen=True)
class ValidityReport:
    trials: int
    eps_prime: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_query(rng, n):
    size = int(rng.integers(1, n + 1))
    return rng.choice(n, size=size, replace=False).tolist()


def verify_oracle_validity(inst: PlantedGoldInstance, trials: int,
                           seed: int = 0) -> ValidityReport:
    """Check (1-eps')*noisy <= true <= (1+eps')*noisy on random queries.

    Comparisons are exact: with eps' = p/q, both values are scaled by k and
    the bounds by q, so every side is an integer. The construction
    guarantees zero violations, so any entry in the report is an
    implementation bug.
    """
    if trials < 0:
        raise ConfigError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    p, q = Fraction(inst.eps_prime).as_integer_ratio()
    k = inst.k_gold
    violations = []
    for _ in range(trials):
        query = inst._nonempty(_sample_query(rng, inst.n_items))
        noisy = inst._scaled_noisy(query)
        true = inst._scaled_true(query)
        if not ((q - p) * noisy <= q * true <= (q + p) * noisy):
            if len(violations) < 10:
                violations.append((len(query), float(Fraction(noisy, k)),
                                   float(Fraction(true, k))))
    return ValidityReport(trials=trials, eps_prime=inst.eps_prime,
                          violations=tuple(violations))


@dataclass(frozen=True)
class DemoReport:
    strategy: str
    budget: int
    queries_used: int
    deviation_found: bool
    best_ratio: float
    best_query_size: int | None


def query_counter_demo(inst: PlantedGoldInstance, strategy: str, budget: int,
                       seed: int = 0) -> DemoReport:
    """Run a query strategy against the oracles and score it by audit.

    random_subsets fires the deviation oracle on random queries until one
    deviates or the budget runs out; greedy_via_noisy grows a k_gold-sized set
    by maximizing the noisy coverage value (ties to the smallest item id),
    spending one budget unit per value query. The report's best_ratio is the
    audited true coverage of the best query relative to the k + n optimum;
    strategies themselves never see audit values.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if budget < 0:
        raise ConfigError(f"budget must be >= 0, got {budget}")
    rng = np.random.default_rng(seed)
    queries = 0
    found = False
    best_ratio = 0.0
    best_size = None

    def observe(query):
        nonlocal best_ratio, best_size
        if not query:
            return
        # true/opt as one correctly rounded integer division
        ratio = (inst._scaled_true(inst._clean(query))
                 / (inst.k_gold * inst.opt_value))
        if ratio > best_ratio:
            best_ratio = ratio
            best_size = len(query)

    if strategy == "random_subsets":
        while queries < budget and not found:
            query = _sample_query(rng, inst.n_items)
            queries += 1
            found = inst.deviation_oracle(query) == 1
            observe(query)
    else:
        held: list[int] = []
        while len(held) < inst.k_gold and queries < budget:
            best_item = None
            best_value = None
            for cand in range(inst.n_items):
                if cand in held:
                    continue
                if queries >= budget:
                    break
                queries += 1
                value = inst.noisy_coverage_oracle(held + [cand])
                # value != k + |query| iff that query's deviation bit fired
                if value != inst.k_gold + len(held) + 1:
                    found = True
                observe(held + [cand])
                if best_value is None or value > best_value:
                    best_value = value
                    best_item = cand
            if best_item is None:
                break
            held.append(best_item)

    return DemoReport(strategy=strategy, budget=budget, queries_used=queries,
                      deviation_found=found, best_ratio=best_ratio,
                      best_query_size=best_size)
