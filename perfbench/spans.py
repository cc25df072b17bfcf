"""Span tracing of walras layers, from outside the library.

``Tracer.install()`` replaces public functions on the module attributes and
classes where their callers look them up (for example
``walras.auction.minimize`` or ``LyapunovOracle.value``) with wrappers that
record one span per call: name, start, end and parent span.  Commands are
identified by the index of their first span.  Spans stay in memory in flat
arrays and are written out once, at the end of the run.  ``uninstall()``
restores every original; the wrappers are built once and reused by every
later ``install()``.

A span's self time is its duration minus the durations of its child spans.
Calls are single-threaded and spans nest, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

SELECT_SPANS = {
    "minimal_descent_set": "lnat.select.minimal-overdemanded",
    "minimal_minimizer_step": "lnat.select.steepest",
    "first_gp_minimal": "lnat.select.excess-random",
    "maximal_gp_minimal": "lnat.select.excess-maximal",
}

# Self-time layers reported as <name>_s, with <name>_calls where listed.
LAYER_TIMES = ("cli.load", "cli.render", "instance.monotone", "instance.mnat",
               "demand.demand_set", "demand.mu_vector", "demand.indirect_utility",
               "lyapunov.value", "lyapunov.deficiency", "lnat.minimize",
               "lnat.lnat_check")
LAYER_CALLS = ("instance.monotone", "instance.mnat", "demand.demand_set",
               "demand.mu_vector", "demand.indirect_utility", "lyapunov.value",
               "lyapunov.deficiency", "lnat.lnat_check")
AUCTION_PHASES = ("admit", "descend", "diagnose", "extract")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = [-1]  # open spans; -1 stands for "no parent"
        # (command id, index of the command's first span), one per command
        self.commands = array("q")
        self.counts: Counter = Counter()
        self._seen_prices: set = set()
        self._distinct_total = 0
        # (owner, attribute, original, wrapper), built by the first install()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name: str, fn):
        """``fn`` wrapped so each call records a span called ``name``."""
        nid = self._nid(name)
        start, end, stack = self.start, self.end, self.stack
        add_name, add_parent, add_start, add_end = (
            self.name_id.append, self.parent.append, start.append, end.append)
        push, pop = stack.append, stack.pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(idx)
            add_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                pop()

        return wrapper

    def begin_command(self, command_id: int) -> None:
        self.commands.extend((command_id, len(self.start)))
        self._distinct_total += len(self._seen_prices)
        self._seen_prices = set()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if not self._patches:
            self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))

    def _build_patches(self) -> None:
        import walras.auction as auction
        import walras.cli as cli
        import walras.instance as instance
        import walras.lnat as lnat
        from walras.demand import DemandCache
        from walras.lyapunov import LyapunovOracle

        spanned = self.spanned
        self._patch(cli, "run_command", spanned("cli.render", cli.run_command))
        self._patch(cli, "load_instance", spanned("cli.load", cli.load_instance))
        monotone = instance.verify_monotone_normalized
        self._patch(instance, "verify_monotone_normalized", spanned("instance.monotone", monotone))
        self._patch(cli, "verify_monotone_normalized", spanned("instance.monotone", monotone))
        self._patch(cli, "verify_mnat_exc", spanned("instance.mnat", cli.verify_mnat_exc))
        self._patch(auction, "verify_mnat_exc", spanned("instance.mnat", auction.verify_mnat_exc))
        self._patch(cli, "ascending_auction", spanned("auction", cli.ascending_auction))
        self._patch(auction, "extract_allocation",
                    spanned("auction.extract", auction.extract_allocation))
        self._patch(cli, "is_lnat_convex_on_box",
                    spanned("lnat.lnat_check", cli.is_lnat_convex_on_box))
        self._patch(auction, "minimize", self._minimize_wrapper(auction.minimize))
        for attr, name in SELECT_SPANS.items():
            self._patch(lnat, attr, self._select_wrapper(name, getattr(lnat, attr)))
        self._patch(LyapunovOracle, "value", self._value_wrapper(LyapunovOracle.value))
        self._patch(LyapunovOracle, "deficiency_mask",
                    spanned("lyapunov.deficiency", LyapunovOracle.deficiency_mask))
        self._patch(LyapunovOracle, "function_oracle",
                    self._adapter_wrapper(LyapunovOracle.function_oracle))
        for attr in ("demand_set", "mu_vector", "indirect_utility"):
            self._patch(DemandCache, attr, spanned(f"demand.{attr}", getattr(DemandCache, attr)))

    def _minimize_wrapper(self, fn):
        inner = self.spanned("lnat.minimize", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            p, trajectory = inner(*args, **kwargs)
            counts["lnat.iterations"] += len(trajectory)
            return p, trajectory

        return wrapper

    def _select_wrapper(self, name: str, fn):
        """Spans only the selection ``minimize`` asked for; a strategy's calls
        into another strategy function stay inside its own span."""
        inner = self.spanned(name, fn)
        select_ids = {self._nid(n) for n in SELECT_SPANS.values()}
        counts, stack, name_id = self.counts, self.stack, self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] in select_ids:
                return fn(*args, **kwargs)
            counts["lnat.select_calls"] += 1
            return inner(*args, **kwargs)

        return wrapper

    def _value_wrapper(self, fn):
        inner = self.spanned("lyapunov.value", fn)

        @functools.wraps(fn)
        def wrapper(oracle, p):
            self._seen_prices.add((id(oracle), tuple(p)))
            return inner(oracle, p)

        return wrapper

    def _adapter_wrapper(self, fn):
        from walras.lnat import FunctionOracle
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            g = fn(*args, **kwargs)
            query = g.fn

            def counted(q):
                counts["lnat.queries"] += 1
                return query(q)

            return FunctionOracle(n=g.n, fn=counted, box=g.box, value_floor=g.value_floor)

        return wrapper

    # -- results ---------------------------------------------------------------

    def summarize(self, command_seconds: float) -> dict:
        """Per-layer self times, call counts, auction phases and ratios.

        ``command_seconds`` is the harness-measured wall time of the traced
        commands.  The part of it outside the self times reported as ``*_s``
        layers is ``trace.unattributed_s``: the ``auction`` span's own work
        (price checks, the diagnostics loop), the harness call and the
        wrappers' own cost.
        """
        n = len(self.start)
        names = [self.names[i] for i in self.name_id]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        minimize_of, extract_of = {}, {}
        for i in range(n):
            name = names[i]
            self_s[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
            p = self.parent[i]
            if p >= 0 and names[p] == "auction":
                if name == "lnat.minimize":
                    minimize_of[p] = i
                elif name == "auction.extract":
                    extract_of[p] = i
        phases = dict.fromkeys(AUCTION_PHASES, 0.0)
        for a, mi in minimize_of.items():
            phases["admit"] += self.start[mi] - self.start[a]
            phases["descend"] += self.end[mi] - self.start[mi]
            ex = extract_of.get(a)
            if ex is not None:
                phases["diagnose"] += self.start[ex] - self.end[mi]
                phases["extract"] += self.end[ex] - self.start[ex]

        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_TIMES:
            out[f"{name}_s"] = (self_s.get(name, 0.0), "s")
        for name in LAYER_CALLS:
            out[f"{name}_calls"] = (calls.get(name, 0), "count")
        for name in SELECT_SPANS.values():
            out["lnat.select_s." + name.rsplit(".", 1)[1]] = (self_s.get(name, 0.0), "s")
        for phase in AUCTION_PHASES:
            out[f"auction.{phase}_s"] = (phases[phase], "s")
        out["auction.extract_calls"] = (calls.get("auction.extract", 0), "count")
        for key in ("lnat.queries", "lnat.select_calls", "lnat.iterations"):
            out[key] = (self.counts.get(key, 0), "count")
        value_calls = calls.get("lyapunov.value", 0)
        distinct = self._distinct_total + len(self._seen_prices)
        out["lyapunov.value_distinct"] = (distinct, "count")
        out["lyapunov.memo_hit_ratio"] = (1 - distinct / value_calls if value_calls else 0.0,
                                          "ratio")
        out["trace.spans"] = (n, "count")
        layers = LAYER_TIMES + tuple(SELECT_SPANS.values())
        reported = sum(self_s.get(name, 0.0) for name in layers)
        out["trace.unattributed_s"] = (command_seconds - reported, "s")
        return out

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        arrays = {"name_id": self.name_id, "start": self.start, "end": self.end,
                  "parent": self.parent, "commands": self.commands}
        header = {"names": self.names,
                  "arrays": [[k, a.typecode, len(a)] for k, a in arrays.items()]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays.values():
                fh.write(arr.tobytes())


def read_spans(path: str) -> dict:
    """Load a file written by :meth:`Tracer.write` into named arrays.
    ``commands`` holds (command id, first span index) pairs, flattened."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for field, code, count in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * count))
            out[field] = arr
    return out
