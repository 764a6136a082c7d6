"""Reference values computed with numpy, independently of covsketch's solvers.

Ties in the greedy oracle go to the smallest set id, the rule the package
documents, so its picks and coverage must match the package's exact greedy.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def read_binary(path):
    """(set ids, element ids) of a little-endian u32 pair file."""
    pairs = np.fromfile(path, dtype="<u4").reshape(-1, 2)
    return pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)


def read_sidecar(path) -> dict:
    with open(str(path) + ".meta.json", encoding="ascii") as fp:
        return json.load(fp)


def recount(u, v, n: int, m: int, chosen) -> int:
    """Distinct elements covered by the chosen sets."""
    pick = np.zeros(n, dtype=bool)
    pick[list(chosen)] = True
    covered = np.zeros(m, dtype=bool)
    covered[v[pick[u]]] = True
    return int(covered.sum())


def greedy_curve(u, v, n: int, m: int, steps: int) -> list[int]:
    """Coverage after 0, 1, ... greedy picks; stops early once no set gains."""
    key = np.unique(u * m + v)
    u, v = key // m, key % m
    starts = np.searchsorted(u, np.arange(n + 1))
    covered = np.zeros(m, dtype=bool)
    curve = [0]
    for _ in range(steps):
        gains = np.bincount(u[~covered[v]], minlength=n)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            break
        covered[v[starts[best]:starts[best + 1]]] = True
        curve.append(curve[-1] + int(gains[best]))
    return curve


def curve_at(curve: list[int], picks: int) -> int:
    return curve[min(picks, len(curve) - 1)]


def brute_force_kcover(edges, n: int, k: int) -> int:
    """Exact max k-coverage over integer bitmasks, by enumeration."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
    best = 0
    for combo in itertools.combinations(masks, k):
        mask = 0
        for part in combo:
            mask |= part
        best = max(best, mask.bit_count())
    return best
