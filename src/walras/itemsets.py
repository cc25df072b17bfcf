"""Bitmask helpers for sets of items labelled 1..n.

Item ``i`` corresponds to bit ``i - 1``.  The engine works on masks;
``frozenset[int]`` values appear only at the oracle and witness edges.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Sequence


def mask_from_items(items: Iterable[int], n: int) -> int:
    """Pack a collection of 1-based item labels into a bitmask."""
    mask = 0
    for i in items:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n:
            raise ValueError(f"item label {i!r} outside 1..{n}")
        mask |= 1 << (i - 1)
    return mask


def items_from_mask(mask: int) -> frozenset[int]:
    """Unpack a bitmask into the frozenset of 1-based item labels."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


@lru_cache(maxsize=256)
def _chi(mask: int, n: int) -> tuple[int, ...]:
    """The 0/1 vector chi_X of the item set ``mask`` over n coordinates,
    kept for the latest 256 (mask, n) pairs."""
    return tuple((mask >> k) & 1 for k in range(n))


def chi_add(p: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Return ``p + chi_X`` for the item set encoded by ``mask``: one
    elementwise add of the kept vector ``_chi(mask, len(p))``, which a
    descent's steps and runs, raising few distinct sets, share."""
    return tuple(map(add, p, _chi(mask, len(p))))


def chi_sub(p: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """Return ``p - chi_X`` for the item set encoded by ``mask``."""
    return tuple(c - ((mask >> k) & 1) for k, c in enumerate(p))


def mask_weight(mask: int, weights: tuple[int, ...]) -> int:
    """Sum ``weights`` over the coordinates selected by ``mask``."""
    total = 0
    k = 0
    while mask:
        if mask & 1:
            total += weights[k]
        mask >>= 1
        k += 1
    return total


def proper_submasks(mask: int) -> Iterator[int]:
    """Yield every proper submask of ``mask``, including 0, excluding ``mask``."""
    sub = (mask - 1) & mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_sums(vec: tuple[int, ...], n: int) -> list[int]:
    """Table of ``sum(vec[k] for k in mask)`` for every mask over n coordinates.

    Built by doubling: the masks with bit k set are the lower half shifted
    by 2^k, each plus ``vec[k]``.
    """
    out = [0]
    for k in range(n):
        c = vec[k]
        out += [t + c for t in out]
    return out


def strides(radices: Sequence[int]) -> list[int]:
    """Place values of the lexicographic index of a box with ``radices[c]``
    points along coordinate c, each counted from the box's low corner."""
    out = [1] * len(radices)
    for c in range(len(radices) - 1, 0, -1):
        out[c - 1] = out[c] * radices[c]
    return out


def box_point(index: int, widths: Sequence[int]) -> tuple[int, ...]:
    """The point of lexicographic index ``index`` in the box [0, widths]."""
    radices = [w + 1 for w in widths]
    return tuple(index // s % r for s, r in zip(strides(radices), radices))


def getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``itemgetter(*indices)``, which returns a tuple also for one index."""
    if len(indices) == 1:
        return lambda seq: (seq[indices[0]],)
    return itemgetter(*indices)


@lru_cache(maxsize=1)
def corner_indices(n: int) -> tuple[int, ...]:
    """For every mask over n coordinates, the lexicographic index of the
    corner that raises the masked coordinates in a product of n two-entry
    axes: coordinate k, bit k of the mask, has place value 2^(n - 1 - k).
    Kept for the latest n."""
    return tuple(subset_sums(strides([2] * n), n))
