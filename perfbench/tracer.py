"""Call tracer for one benchmark pass: wraps freefactor's public functions.

Every function is wrapped once and the wrapper is written over every
module attribute that is the original object, because ``from .x import y``
re-binds names in ``cli``, ``experiments``, ``factors``, ``farey``, ``trees``
and the package itself.  Methods are wrapped on their class.

Each call pushes a frame on one stack, so a function's self time is its
duration minus the time of the traced calls it made.  Hot boundaries, which
run up to millions of times per pass, keep only per-name totals; the coarse
ones also record a span (name, start, end, parent span), kept in memory and
written out by the caller when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (layer module, attribute path, hot) for every traced boundary; the metric
# name is "<layer>.<attribute path>".  apply_automorphism,
# b_reduced_decomposition and FreeFactorVertex.graph run once per Whitehead
# move or per sampled element, so they are hot as well.
TARGETS = (
    ("cli", "main", False),
    ("experiments", "exp_lipschitz", False),
    ("experiments", "exp_basis_change", False),
    ("experiments", "exp_quasiflat", False),
    ("experiments", "exp_twist_stability", False),
    ("factors", "factor_invariant", False),
    ("factors", "fold", False),
    ("factors", "is_basis_pair", False),
    ("factors", "random_free_factor", False),
    ("factors", "FreeFactorVertex.graph", True),
    ("whitehead", "minimize_cyclic_length", False),
    ("whitehead", "classify", False),
    ("whitehead", "whitehead_graph", False),
    ("whitehead", "find_cut_vertex", False),
    ("whitehead", "WhAutomorphism.__call__", True),
    ("whitehead", "enumerate_whitehead_automorphisms", False),
    ("trees", "geometric_index", False),
    ("farey", "FareyGraph.__init__", False),
    ("farey", "FareyGraph.bfs", False),
    ("farey", "farey_distance", True),
    ("farey", "slope_of", False),
    ("words", "Word.__post_init__", True),
    ("words", "free_reduce", True),
    ("words", "cyclic_reduce", True),
    ("words", "b_reduced_decomposition", True),
    ("words", "apply_automorphism", True),
    ("words", "parse_word", False),
    ("words", "format_word", True),
)

NAMES = tuple(f"{layer}.{attr}" for layer, attr, _ in TARGETS)


class Tracer:
    """Counts, self time and total time per traced name, plus coarse spans.

    ``phase`` is set by the benchmark around groups of operations; calls to
    ``farey_distance`` are also totalled under ``farey.farey_distance.<phase>``.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.phase: str | None = None
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import freefactor

        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "freefactor" or name.startswith("freefactor."))
        ]
        for layer, attr, hot in TARGETS:
            name = f"{layer}.{attr}"
            owner = getattr(freefactor, layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, property):
                    wrapped = property(self._wrap(original.fget, name, hot))
                else:
                    wrapped = self._wrap(original, name, hot)
                self._patch(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, hot)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapped) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapped)

    def _wrap(self, fn, name, hot):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        spans = self.spans
        clock = time.perf_counter
        post = _POST.get(name)
        snap = _SNAP.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if hot:
                span_id = parent
            else:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            before = calls[snap] if snap else 0
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_dt = dt - frame[0]
                calls[name] += 1
                self_s[name] += self_dt
                total_s[name] += dt
                if not hot:
                    spans[span_id] = (name, t0, t1, parent)
                if post is not None:
                    nested = calls[snap] - before if snap else 0
                    post(tracer, args, kwargs, result, dt, self_dt, nested)

        return wrapper

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "extra": dict(self.extra),
        }


def _post_minimize(tracer, args, kwargs, cert, dt, self_dt, moves):
    extra = tracer.extra
    if cert is not None:
        extra["whitehead.minimize_cyclic_length.steps"] += len(cert.chain)
    rank = args[0].rank
    extra[f"whitehead.minimize_cyclic_length.rank{rank}.calls"] += 1
    extra[f"whitehead.minimize_cyclic_length.rank{rank}.total_s"] += dt
    extra["whitehead.moves_evaluated"] += moves


def _post_factor_invariant(tracer, args, kwargs, est, dt, self_dt, nested):
    if est is not None:
        tracer.extra["factors.factor_invariant.samples"] += est.samples
        tracer.extra["factors.factor_invariant.tight"] += bool(est.tight)


def _post_graph(tracer, args, kwargs, graph, dt, self_dt, folds):
    tracer.extra["factors.FreeFactorVertex.graph.folds"] += folds


def _post_quasiflat(tracer, args, kwargs, report, dt, self_dt, nested):
    radius = args[0] if args else kwargs.get("grid_radius", 8)
    tracer.extra[f"experiments.exp_quasiflat.r{radius}.total_s"] += dt


def _post_farey_distance(tracer, args, kwargs, d, dt, self_dt, nested):
    if tracer.phase is not None:
        key = f"farey.farey_distance.{tracer.phase}"
        tracer.extra[key + ".calls"] += 1
        tracer.extra[key + ".self_s"] += self_dt


_POST = {
    "whitehead.minimize_cyclic_length": _post_minimize,
    "factors.factor_invariant": _post_factor_invariant,
    "factors.FreeFactorVertex.graph": _post_graph,
    "experiments.exp_quasiflat": _post_quasiflat,
    "farey.farey_distance": _post_farey_distance,
}

# Counter read before and after a call, passed to the post hook as the
# number of nested calls of that name.
_SNAP = {
    "whitehead.minimize_cyclic_length": "whitehead.WhAutomorphism.__call__",
    "factors.FreeFactorVertex.graph": "factors.fold",
}
