"""Per-layer spans around mdmvi's public functions, recorded from outside.

``Tracer.install`` wraps each function in ``LAYERS`` in every ``mdmvi.*``
module namespace that binds that very function object.  The scan is by
identity because modules import each other's functions by name (ekeland
and mdmvt bind ``phi_eval`` and ``f_eval``), and some import them inside a
function body, which reads the module attribute at call time.

Each call becomes a span (layer, start, end, parent span, operation id),
kept in memory and written out by ``write_spans``.  Self time is the span's
duration minus the time covered by its child spans; total time counts only
the outermost call of a layer, so recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from time import perf_counter

import numpy as np

LAYERS = {
    "geometry": ("dist_to_hull", "sample_set", "classify_point"),
    "simplex_optim": ("solve_lp", "maximize_concave", "golden_max"),
    "tent": ("psi_eval",),
    "supconv": ("phi_eval", "phi_on_grid", "phi_supergradient", "uv_disjoint"),
    "functions": ("f_eval", "f_subgrad"),
    "ekeland": ("minimize_g", "fuzzy_pair", "evp_verify"),
    "mdmvt": (
        "_estimate_inf",
        "choose_params",
        "boundary_samples",
        "_bisect_disjoint",
        "run",
        "verify_certificate",
    ),
    "oracles": ("grid_inf",),
}

# layers whose first argument is a point; repeat_share is the share of
# calls on a point already seen in the same operation
_POINT_LAYERS = ("tent.psi_eval", "supconv.phi_eval")


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "repeats", "hits", "iters", "gap_max", "points")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.repeats = 0
        self.hits = 0  # exterior results, or raised SupergradientError
        self.iters = 0
        self.gap_max = 0.0
        self.points = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, _Stat] = {}
        self.op = -1
        self._stack: list[list] = []  # [span index, layer, child seconds]
        self._seen: dict[str, set] = {}
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"mdmvi.{m}") for m in LAYERS]
        namespaces = [
            m for name, m in sys.modules.items() if name == "mdmvi" or name.startswith("mdmvi.")
        ]
        for mod, names in zip(modules, LAYERS.values()):
            short = mod.__name__.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue  # a removed stage: its metrics are absent
                wrapper = self._wrap(f"{short}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen.clear()

    def _wrap(self, layer: str, fn):
        st = self.stats[layer] = _Stat()
        spans, stack, seen = self.spans, self._stack, self._seen
        track_points = layer in _POINT_LAYERS
        is_f_eval = layer == "functions.f_eval"
        counts_failures = layer == "supconv.phi_supergradient"
        observe = _OBSERVERS.get(layer)

        def traced(*args, **kwargs):
            if track_points:
                key = np.asarray(args[0], dtype=float).tobytes()
                points = seen.setdefault(layer, set())
                if key in points:
                    st.repeats += 1
                else:
                    points.add(key)
            parent = stack[-1] if stack else None
            frame = [len(spans), layer, 0.0]
            spans.append(None)
            stack.append(frame)
            st.depth += 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if counts_failures and type(exc).__name__ == "SupergradientError":
                    st.hits += 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dur - frame[2]
                if st.depth == 0:
                    st.total_s += dur
                if parent is not None:
                    parent[2] += dur
                    if is_f_eval and parent[1] == "oracles.grid_inf":
                        self.stats["oracles.grid_inf"].points += 1
                spans[frame[0]] = (layer, t0, t1, -1 if parent is None else parent[0], self.op)
                if observe is not None and result is not None:
                    observe(st, args, result)

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        out: dict[str, float] = {}
        for layer, st in self.stats.items():
            out[f"{layer}.calls"] = st.calls
            out[f"{layer}.self_s"] = st.self_s
            out[f"{layer}.total_s"] = st.total_s
            share = (lambda n: n / st.calls if st.calls else 0.0)
            if layer in _POINT_LAYERS:
                out[f"{layer}.repeat_share"] = share(st.repeats)
            if layer == "geometry.dist_to_hull":
                out[f"{layer}.exterior_share"] = share(st.hits)
            if layer == "simplex_optim.maximize_concave":
                out[f"{layer}.iters_mean"] = share(st.iters)
            if layer == "supconv.phi_eval":
                out[f"{layer}.gap_max"] = st.gap_max
            if layer == "supconv.phi_supergradient":
                out[f"{layer}.fail_share"] = share(st.hits)
            if layer in ("supconv.phi_on_grid", "oracles.grid_inf"):
                out[f"{layer}.points"] = st.points
        return out

    def write_spans(self, path) -> None:
        """Spans as gzip CSV; times in seconds from the first span."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span,layer,start_s,end_s,parent,op\n")
            for i, (layer, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{layer},{t0 - t_ref:.9f},{t1 - t_ref:.9f},{parent},{op}\n")


def _exterior(st, args, result):
    st.hits += result.d > 0


def _fw_iters(st, args, result):
    st.iters += result.iterations


def _gap(st, args, result):
    st.gap_max = max(st.gap_max, result.gap)


def _grid_points(st, args, result):
    st.points += len(args[1])


_OBSERVERS = {
    "geometry.dist_to_hull": _exterior,
    "simplex_optim.maximize_concave": _fw_iters,
    "supconv.phi_eval": _gap,
    "supconv.phi_on_grid": _grid_points,
}
