"""Bitmask helpers for sets of items labelled 1..n, and ``box_pairs``,
the pair plans of the M♮ and L♮ local checks.

Item ``i`` corresponds to bit ``i - 1``.  The engine works on masks;
``frozenset[int]`` values appear only at the oracle and witness edges.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from math import inf, prod
from operator import add, itemgetter, mul
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


def chi_add(p: tuple[int, ...], mask: int, s: int = 1) -> tuple[int, ...]:
    """Return ``p + s * chi_X`` for the item set encoded by ``mask``: one
    elementwise add of the kept vector ``_chi(mask, len(p))``, which a
    descent's steps and runs, raising few distinct sets, share."""
    chi = _chi(mask, len(p))
    return tuple(map(add, p, chi if s == 1 else map(mul, chi, repeat(s))))


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


#: Kept plans by (widths, family), oldest first: (pairs, reads, plan, index
#: entries, budget of the building call).
_PLANS: dict = {}


def box_pairs(widths: tuple, family: Callable, budget: int, most: float = inf) -> tuple:
    """(pairs, reads, plan) of ``family`` on the box [0, widths].

    ``family(n)`` lists patterns: per coordinate, the steps a pair may take,
    each as the offsets along it of the K points the pair reads, the pair
    first.  A pair is a base point where all K lie in the box.  The plan
    is (block size, blocks): leading coordinates give a block's start, the
    trailing (at most three) its places; a block (first places, second
    places, K getters, K start columns) serves patterns of one K sharing
    their trailing steps.  A caller charged the reads passes them as
    ``most``: over it no plan is built, within it the plan is one block of
    the whole box.  A plan over its call's budget in index entries is not
    kept; the others are kept while their entries fit the budget of each
    call that built one, oldest dropped first.
    """
    kept = _PLANS.get((widths, family))
    if kept is None:
        patterns = family(len(widths))
        spans = {key: sum(max(0, key[0] + 1 - max(o) + min(o)) for o in key[1])
                 for key in {key for pattern in patterns for key in zip(widths, pattern)}}
        bases = [prod(map(spans.get, zip(widths, pattern))) for pattern in patterns]
        reads = sum(len(pattern[0][0]) * b for pattern, b in zip(patterns, bases))
        if reads > most:
            return sum(bases), reads, None
        k = max(len(widths) - 3, 0) if most == inf else 0
        stride = strides([w + 1 for w in widths])
        tails, leads, blocks, parts = {}, {}, [], {}
        for pattern in compress(patterns, bases):
            tails.setdefault((len(pattern[0][0]), pattern[:k]), []).append(pattern[k:])
        for lead, rest in tails.items():
            leads.setdefault(tuple(rest), []).append(lead)
        for rest, first in leads.items():
            cols = _columns(stride[k:], widths[k:], rest, first[0][0], parts)
            starts = _columns(stride[:k], widths[:k], [lead for _, lead in first], first[0][0], parts)
            blocks.append((cols[0], cols[1], [getter(col) for col in cols], starts))
        entries = sum(len(get) * (len(ps) + len(starts[0])) for ps, _, get, starts in blocks)
        plan = prod(w + 1 for w in widths[k:]), blocks
        kept = sum(bases), reads, plan, entries, budget
        if entries <= budget:
            _PLANS[widths, family] = kept
            while sum(e[3] for e in _PLANS.values()) > min(e[4] for e in _PLANS.values()):
                del _PLANS[next(iter(_PLANS))]
    return kept[0], kept[1], kept[2] if kept[1] <= most else None


def _columns(stride: list, widths: tuple, patterns: list, points: int,
             parts: dict) -> list[list[int]]:
    """The index columns of the ``points`` points at each pattern's base
    points in turn, in lexicographic order; ``parts`` keeps the index parts
    along a coordinate by (stride, width, steps) for the plan's calls."""
    out = [[] for _ in range(points)]
    for pattern in patterns:
        cols = [[0]] * points
        for key in zip(stride, widths, pattern):
            if key not in parts:
                s, w, steps = key
                parts[key] = [[s * (b + step[i]) for step in steps
                               for b in range(-min(step), w + 1 - max(step))]
                              for i in range(points)]
            cols = [[a + e for a in col for e in part] for col, part in zip(cols, parts[key])]
        for joined, col in zip(out, cols):
            joined.extend(col)
    return out


def pair_failures(vals: Sequence, plan: tuple, fails: Callable) -> Iterator[tuple[int, int]]:
    """The flat indices (p, q) of each pair of ``plan`` that ``fails`` flags,
    given each block start's K value tuples (read in place at 0); None
    flags none."""
    size, blocks = plan
    for ps, qs, get, leads in blocks:
        for starts in zip(*leads):
            low = fails(*[read(vals[b:b + size] if b else vals) for read, b in zip(get, starts)])
            if low is not None:
                for p, q in compress(zip(ps, qs), low):
                    yield starts[0] + p, starts[1] + q
