"""Auction instances, valuation families, and the JSON disk format.

Everything here is exact integer arithmetic: valuations, prices and bundle
values are Python ints, never floats.  All types are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import json
from itertools import (accumulate, chain, combinations, combinations_with_replacement,
                       compress, count, product)
from math import prod
from operator import add, and_, ge, gt, lt, neg, sub
from typing import Iterator, Mapping, NamedTuple

from .errors import BudgetExceededError, InstanceFormatError
from .itemsets import box_pairs, box_point, pair_failures, strides

Bundle = tuple[int, ...]
PriceVector = tuple[int, ...]
ItemSet = frozenset[int]

UNIT = "unit"
MULTI = "multi"
MODELS = (UNIT, MULTI)

UNIT_DEMAND = "unit_demand"
SEPARABLE_CONCAVE = "separable_concave"
EXPLICIT_TABLE = "explicit_table"
FAMILIES = (UNIT_DEMAND, SEPARABLE_CONCAVE, EXPLICIT_TABLE)

#: Default cap on valuation evaluations per verifier / oracle call, and the
#: most items a unit market's default supply may list.
DEFAULT_BUDGET = 10**6


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: must be an integer")
    return value


def _as_nonneg_int(value, where: str) -> int:
    v = _as_int(value, where)
    if v < 0:
        raise ValueError(f"{where}: must be nonnegative")
    return v


def _items(value, where: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{where}: must be a sequence") from None


def box_volume(u: Bundle) -> int:
    """Number of integer bundles in the box [0, u]."""
    return prod(c + 1 for c in u)


def iter_box(u: Bundle) -> Iterator[Bundle]:
    """Iterate the box [0, u] in lexicographic order."""
    return product(*(range(c + 1) for c in u))


class _Record:
    """Base of the records that normalize their fields or keep derived
    state.  ``__init__`` sets each slot once, through ``_assign``; the
    slots named in ``_fields`` are the record's fields, by which it
    compares, hashes, pickles and prints (a field named with ``_`` is left
    out of the repr).  Any later assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class Valuation(_Record):
    """One bidder's valuation, tagged by family.

    Exactly one payload field is populated:

    * ``values`` (unit_demand): per-item worth of a single unit; a bundle is
      worth its best contained item, the empty bundle worth 0.
    * ``marginals`` (separable_concave): per item, the worth of each extra
      unit, nonincreasing within an item.
    * ``table`` (explicit_table): a total map from every bundle in its box to
      an integer, stored as sorted (bundle, value) pairs.

    Each payload is checked in one walk, entry by entry in order: an entry
    of exact ``int`` type passes on one test, and only one that fails it is
    handed to ``_as_nonneg_int`` / ``_as_int``, which accept an int subclass
    and otherwise name that entry; an entry of the wrong shape is named
    where it fails to unpack.  Raw valuations may violate monotonicity
    or normalization (the verifiers below report such defects); assembling
    an :class:`Instance` enforces them.
    """

    __slots__ = ("family", "values", "marginals", "table", "_prefix", "_box")
    _fields = __slots__[:4]

    def __init__(self, family: str, values: tuple[int, ...] | None = None,
                 marginals: tuple[tuple[int, ...], ...] | None = None,
                 table: tuple[tuple[Bundle, int], ...] | None = None):
        prefix = None
        if family == UNIT_DEMAND:
            if values is None or marginals is not None or table is not None:
                raise ValueError("values: unit_demand valuation takes exactly the 'values' payload")
            values = _items(values, "values")
            for k, c in enumerate(values):
                if type(c) is not int or c < 0:
                    _as_nonneg_int(c, f"values[{k}]")
            if not values:
                raise ValueError("values: must not be empty")
            box = (1,) * len(values)
        elif family == SEPARABLE_CONCAVE:
            if marginals is None or values is not None or table is not None:
                raise ValueError("marginals: separable_concave valuation takes exactly the 'marginals' payload")
            rows = []
            for i, r in enumerate(_items(marginals, "marginals")):
                try:
                    r = tuple(r)
                except TypeError:
                    raise ValueError(f"marginals[{i}]: must be a sequence") from None
                for k, c in enumerate(r):
                    if type(c) is not int or c < 0:
                        _as_nonneg_int(c, f"marginals[{i}][{k}]")
                if not r:
                    raise ValueError(f"marginals[{i}]: must list at least one unit")
                if not all(map(ge, r, r[1:])):
                    raise ValueError(f"marginals[{i}]: must be nonincreasing")
                rows.append(r)
            if not rows:
                raise ValueError("marginals: must not be empty")
            marginals = tuple(rows)
            prefix = tuple(tuple(accumulate(row, initial=0)) for row in rows)
            box = tuple(len(row) for row in rows)
        elif family == EXPLICIT_TABLE:
            if table is None or values is not None or marginals is not None:
                raise ValueError("entries: explicit_table valuation takes exactly the 'entries' payload")
            pairs = []  # entry k is checked when k entries have passed
            n = None
            for entry in _items(table, "entries"):
                try:
                    x, v = entry
                except (TypeError, ValueError):
                    raise ValueError(f"entries[{len(pairs)}]: must be a (bundle, worth) pair") from None
                try:
                    x = tuple(x)
                except TypeError:
                    raise ValueError(f"entries[{len(pairs)}].x: must be a sequence") from None
                for c in x:
                    if type(c) is not int or c < 0:
                        for j, part in enumerate(x):
                            _as_nonneg_int(part, f"entries[{len(pairs)}].x[{j}]")
                        break
                if len(x) != n:
                    if pairs:
                        raise ValueError(f"entries[{len(pairs)}].x: expected {n} components")
                    n = len(x)
                if type(v) is not int:
                    _as_int(v, f"entries[{len(pairs)}].v")
                pairs.append((x, v))
            if not pairs or not pairs[0][0]:
                raise ValueError("entries: must cover a nonempty box")
            pairs.sort()
            box = tuple(map(max, zip(*(x for x, _ in pairs))))
            if len(pairs) != box_volume(box):
                raise ValueError("entries: must map every bundle in the box exactly once")
            for k in range(len(pairs) - 1):
                if pairs[k][0] == pairs[k + 1][0]:
                    raise ValueError(f"entries: duplicate bundle {pairs[k][0]}")
            table = tuple(pairs)
        else:
            raise ValueError(f"family: unknown family tag {family!r}")
        self._assign(family, values, marginals, table, prefix, box)

    @property
    def n(self) -> int:
        return len(self._box)

    def box(self) -> Bundle:
        """Upper corner of this valuation's bundle domain, fixed at construction."""
        return self._box

    @staticmethod
    def unit_demand(values) -> "Valuation":
        return Valuation(family=UNIT_DEMAND, values=values)

    @staticmethod
    def separable(marginals) -> "Valuation":
        return Valuation(family=SEPARABLE_CONCAVE, marginals=marginals)

    @staticmethod
    def from_table(entries: Mapping[Bundle, int]) -> "Valuation":
        return Valuation(family=EXPLICIT_TABLE, table=entries.items())


def evaluate(v: Valuation, x: Bundle) -> int:
    """Exact worth of bundle ``x`` under valuation ``v``.

    Raises ValueError when ``x`` falls outside the valuation's box.
    """
    box = v.box()
    if len(x) != len(box):
        raise ValueError(f"bundle out of box: expected {len(box)} components, got {len(x)}")
    for j, (c, cap) in enumerate(zip(x, box)):
        if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c <= cap:
            raise ValueError(f"bundle out of box: component {j + 1} is {c!r}, box allows 0..{cap}")
    if v.family == UNIT_DEMAND:
        worth = 0
        for c, w in zip(x, v.values):
            if c and w > worth:
                worth = w
        return worth
    if v.family == SEPARABLE_CONCAVE:
        prefix = v._prefix
        return sum(prefix[j][c] for j, c in enumerate(x))
    index = 0  # the table lists the box in lexicographic order
    for c, cap in zip(x, box):
        index = index * (cap + 1) + c
    return v.table[index][1]


def _box_worths(v: Valuation) -> list[int]:
    """Worth of every bundle in v's box, in lexicographic order; a table
    already stores them so."""
    if v.family == EXPLICIT_TABLE:
        return [w for _, w in v.table]
    return [evaluate(v, x) for x in iter_box(v.box())]


class MnatCounterexample(NamedTuple):
    """Witness that a valuation is not M♮-concave on its box.

    Lifted by x~ = (-Σx, x), the bundles ``x`` < ``y`` (lexicographically)
    lie at ‖x~ - y~‖₁ = 4, and no one-unit exchange between them keeps
    v(x) + v(y): for every lifted coordinate i with x~_i > y~_i and j with
    x~_j < y~_j, v(x~ - e_i + e_j) + v(y~ + e_i - e_j) < v(x) + v(y).  Index
    0 is the lifted coordinate, so an exchange through it adds or drops a
    unit.  This breaks the local exchange condition that decides
    M♮-concavity (see ``verify_mnat_exc``).
    """

    x: Bundle
    y: Bundle


def verify_mnat_exc(v: Valuation, *,
                    budget: int = DEFAULT_BUDGET) -> MnatCounterexample | None:
    """Decide whether v is M♮-concave on its own box, by one local check.

    Lifted by x~ = (-Σx, x), a valuation on the box is M♮-concave iff its
    lift is M-concave on the lifted box, an M-convex set, and there
    M-concavity is decided by the exchange condition on the pairs with
    ‖x~ - y~‖₁ = 4 alone (Murota, *Discrete Convex Analysis*, SIAM 2003,
    ch. 6: the local exchange theorem), ``_exchanges``, planned by
    ``box_pairs``.  It returns None when each has an exchange worth at least
    the pair, else the least failing pair by flat index.  The budget is
    charged the box volume, then the check's reads, before any value is
    read.
    """
    u = v.box()
    volume = box_volume(u)
    if volume > budget:
        raise BudgetExceededError(
            f"verification box volume {volume} exceeds budget {budget}")
    _, reads, plan = box_pairs(u, _exchanges, budget, budget)
    if plan is None:
        raise BudgetExceededError(f"exchange check needs {reads} reads, budget is {budget}")
    first = min(pair_failures(_box_worths(v), plan, _exchange_fails), default=None)
    if first is None:
        return None
    x, y = (box_point(i, u) for i in first)
    return MnatCounterexample(x=x, y=y)


def _exchanges(n: int) -> list[tuple]:
    """The exchange check's patterns on n items.  A pair at lifted distance
    4 has x~ - y~ = e_P - e_Q for disjoint 2-multisets P and Q of {0..n}, 0
    the lifted coordinate, listed once, with d = y - x lexicographically
    positive.  It reads x, y and each move's bundles x~ - e_i + e_j,
    y~ + e_i - e_j (i in P, j in Q); the move through the other i and j
    reads the same two, so there are two moves if P and Q each hold two
    indices, else one.  All lie in the box if x and y do.  No cited theorem
    drops pairs moving four items."""
    e = [(0,) * n] + [tuple(int(c == k) for c in range(n)) for k in range(n)]
    patterns, steps = [], {}
    for P, Q in combinations(combinations_with_replacement(range(n + 1), 2), 2):
        if not set(P).isdisjoint(Q):
            continue
        d = tuple(map(sub, map(add, e[Q[0]], e[Q[1]]), map(add, e[P[0]], e[P[1]])))
        if d < (0,) * n:
            P, Q, d = Q, P, tuple(map(neg, d))
        moves = [tuple(map(sub, e[j], e[P[0]])) for j in (Q if P[0] < P[1] and Q[0] < Q[1] else Q[:1])]
        points = (0,) * n, d, *chain(*((m, tuple(map(sub, d, m))) for m in moves))
        patterns.append(tuple(steps.setdefault(c, (c,)) for c in zip(*points)))
    return patterns


def _exchange_fails(x: tuple, y: tuple, *moves: tuple) -> Iterator[bool]:
    """Per pair of a block, whether all its exchanges are worth less."""
    need = tuple(map(add, x, y)) if len(moves) > 2 else map(add, x, y)
    fails = [map(lt, map(add, a, b), need) for a, b in zip(moves[::2], moves[1::2])]
    return map(and_, *fails) if len(fails) > 1 else fails[0]


class MonotonicityCounterexample(NamedTuple):
    """Witness against monotone-nondecreasing, zero-normalized valuations."""

    x: Bundle | None
    i: int | None
    message: str


def verify_monotone_normalized(v: Valuation, *,
                               budget: int = DEFAULT_BUDGET) -> MonotonicityCounterexample | None:
    """Check v(0) = 0 and componentwise monotonicity over v's own box.

    The budget is charged volume * (n + 1) evaluations up front.  The box is
    evaluated once into a flat list in lexicographic order and checked in
    one pass by stride offsets (``_nondecreasing``); the witness is the
    least failing (x, j), x first, which is the first decrease by x and
    then ascending j.
    """
    u = v.box()
    volume = box_volume(u)
    if volume * (len(u) + 1) > budget:
        raise BudgetExceededError(
            f"monotonicity scan of volume {volume} exceeds budget {budget}")
    worth = _box_worths(v)
    if worth[0] != 0:
        return MonotonicityCounterexample(x=None, i=None, message="v(0)≠0")
    first = min(_nondecreasing(u, worth), default=None)
    if first is None:
        return None
    x, i = box_point(first[0], u), first[1] + 1
    return MonotonicityCounterexample(
        x=x, i=i, message=f"v decreases from {x} when adding item {i}")


def _nondecreasing(u: Bundle, worth: list[int]) -> Iterator[tuple[int, int]]:
    """Yield (ix, j) for every bundle x, at flat index ix, and item j with
    x_j < u_j and worth[x + chi_j] < worth[x].  Along item j, of stride s,
    x + chi_j sits s indices after x, and x_j is ix // s % (u_j + 1)."""
    for j, (s, c) in enumerate(zip(strides([c + 1 for c in u]), u)):
        for ix in compress(count(), map(gt, worth, worth[s:])):
            if ix // s % (c + 1) < c:
                yield ix, j


class Instance(_Record):
    """A complete auction problem: model tag, supply, and bidder valuations."""

    __slots__ = _fields = ("model", "n", "u", "valuations")

    def __init__(self, model: str, n: int, u: Bundle, valuations: tuple[Valuation, ...]):
        if model not in MODELS:
            raise InstanceFormatError(f"model: must be one of {MODELS}, got {model!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InstanceFormatError("n: must be a positive integer")
        u = tuple(u)
        if len(u) != n:
            raise InstanceFormatError(f"u: expected {n} entries, got {len(u)}")
        for i, c in enumerate(u):
            if isinstance(c, bool) or not isinstance(c, int) or c < 1:
                raise InstanceFormatError(f"u[{i}]: supply must be positive")
        if model == UNIT and any(c != 1 for c in u):
            raise InstanceFormatError("u: must be all ones for model 'unit'")
        valuations = tuple(valuations)
        for b, v in enumerate(valuations):
            if not isinstance(v, Valuation):
                raise InstanceFormatError(f"valuations[{b}]: not a Valuation")
            if model == UNIT and v.family != UNIT_DEMAND:
                raise InstanceFormatError(
                    f"valuations[{b}].family: model 'unit' requires family 'unit_demand'")
            if v.box() != u:
                raise InstanceFormatError(
                    f"valuations[{b}]: domain box {v.box()} does not match supply {u}")
            if v.family == EXPLICIT_TABLE:  # charged its reads: the table bounds them
                bad = verify_monotone_normalized(v, budget=box_volume(u) * (n + 1))
                if bad is not None:
                    raise InstanceFormatError(f"valuations[{b}]: {bad.message}")
        self._assign(model, n, u, valuations)

    @property
    def m(self) -> int:
        return len(self.valuations)


def max_total_value(instance: Instance) -> int:
    """Largest worth any bidder assigns to the full supply bundle.

    The Lyapunov function is strictly increasing in any price coordinate
    beyond this value, so it bounds every minimizer's components.
    """
    if instance.m == 0:
        return 0
    return max(evaluate(v, instance.u) for v in instance.valuations)


# --- on-disk format ------------------------------------------------------

_TOP_KEYS = {"model", "n", "m", "u", "valuations"}
_FAMILY_KEYS = {
    UNIT_DEMAND: {"family", "values"},
    SEPARABLE_CONCAVE: {"family", "marginals"},
    EXPLICIT_TABLE: {"family", "entries"},
}


def _parse_valuation(raw, where: str) -> Valuation:
    if not isinstance(raw, dict):
        raise InstanceFormatError(f"{where}: must be a JSON object")
    family = raw.get("family")
    if family not in FAMILIES:
        raise InstanceFormatError(f"{where}.family: unknown family tag {family!r}")
    extra = set(raw) - _FAMILY_KEYS[family]
    if extra:
        raise InstanceFormatError(f"{where}.{sorted(extra)[0]}: unknown field")
    try:
        if family == UNIT_DEMAND:
            values = raw.get("values")
            if not isinstance(values, list):
                raise ValueError("values: must be a list")
            return Valuation.unit_demand(values)
        if family == SEPARABLE_CONCAVE:
            marginals = raw.get("marginals")
            if not isinstance(marginals, list) or not all(isinstance(r, list) for r in marginals):
                raise ValueError("marginals: must be a list of lists")
            return Valuation.separable(marginals)
        entries = raw.get("entries")
        if not isinstance(entries, list):
            raise ValueError("entries: must be a list")
        pairs = []  # entry k is checked when k entries have passed
        for e in entries:
            if type(e) is not dict or len(e) != 2 or type(e.get("x")) is not list or "v" not in e:
                if not isinstance(e, dict) or set(e) != {"x", "v"} or not isinstance(e["x"], list):
                    raise ValueError(
                        f"entries[{len(pairs)}]: must be an object with keys 'x' and 'v'")
            pairs.append((e["x"], e["v"]))
        return Valuation(family=EXPLICIT_TABLE, table=tuple(pairs))
    except ValueError as exc:
        raise InstanceFormatError(f"{where}.{exc}") from None


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance format into a validated Instance."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
        raise InstanceFormatError(f"malformed JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InstanceFormatError("instance: must be a JSON object")
    extra = set(raw) - _TOP_KEYS
    if extra:
        raise InstanceFormatError(f"{sorted(extra)[0]}: unknown field")
    for key in ("model", "n", "m", "valuations"):
        if key not in raw:
            raise InstanceFormatError(f"{key}: missing required field")
    model = raw["model"]
    if model not in MODELS:
        raise InstanceFormatError(f"model: must be 'unit' or 'multi', got {model!r}")
    try:
        n = _as_int(raw["n"], "n")
        m = _as_int(raw["m"], "m")
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    if n < 1:
        raise InstanceFormatError("n: must be a positive integer")
    if m < 0:
        raise InstanceFormatError("m: must be nonnegative")
    if "u" in raw:
        u = raw["u"]
        if not isinstance(u, list):
            raise InstanceFormatError("u: must be a list")
        if len(u) != n:
            raise InstanceFormatError(f"u: expected {n} entries, got {len(u)}")
        for i, c in enumerate(u):
            if isinstance(c, bool) or not isinstance(c, int):
                raise InstanceFormatError(f"u[{i}]: must be an integer")
            if c < 1:
                raise InstanceFormatError(f"u[{i}]: supply must be positive")
        u = tuple(u)
    elif model == UNIT:
        if n > DEFAULT_BUDGET:
            raise InstanceFormatError(f"n: must be at most {DEFAULT_BUDGET}")
        u = (1,) * n
    else:
        raise InstanceFormatError("u: missing required field for model 'multi'")
    raw_vals = raw["valuations"]
    if not isinstance(raw_vals, list):
        raise InstanceFormatError("valuations: must be a list")
    if len(raw_vals) != m:
        raise InstanceFormatError("m: does not match the number of valuation records")
    valuations = tuple(_parse_valuation(rv, f"valuations[{k}]")
                       for k, rv in enumerate(raw_vals))
    return Instance(model=model, n=n, u=u, valuations=valuations)


def serialize_instance(instance: Instance) -> str:
    """Serialize an Instance to its canonical JSON text (round-trips exactly)."""
    vals = []
    for v in instance.valuations:
        if v.family == UNIT_DEMAND:
            vals.append({"family": v.family, "values": list(v.values)})
        elif v.family == SEPARABLE_CONCAVE:
            vals.append({"family": v.family, "marginals": [list(r) for r in v.marginals]})
        else:
            vals.append({"family": v.family,
                         "entries": [{"x": list(x), "v": w} for x, w in v.table]})
    doc = {"model": instance.model, "n": instance.n, "m": instance.m,
           "u": list(instance.u), "valuations": vals}
    return json.dumps(doc, indent=2) + "\n"


def load_instance(path: str) -> Instance:
    """Read and parse an instance file; every failure names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, InstanceFormatError) as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None
