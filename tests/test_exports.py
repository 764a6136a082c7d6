"""The package's public names: `covsketch.__all__` lists only names that
resolve, in sorted order, so a deleted definition cannot leave a stale
export behind."""

import covsketch


def test_every_export_resolves():
    missing = [name for name in covsketch.__all__ if not hasattr(covsketch, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert covsketch.__all__ == sorted(set(covsketch.__all__))
