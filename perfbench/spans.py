"""In-memory span tracer installed from outside the program.

`Tracer.install()` wraps every public function of the fatpoints modules and
rebinds each alias of it (module globals such as the recursive
`bounds.waldschmidt_lower_bound`, imports such as `cli.linear_system_dim`,
and the package re-exports).  A span is (name, start, end, parent, op, info);
spans stay in a list until the run ends.  `layer_metrics` folds them into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

MODULES = ("core", "reduction", "facts", "bounds", "oracle", "cli")
# a constant-time leaf called in inner loops: its span would cost more than
# its body, and its time stays in the caller's self time
UNTRACED = {"core.binomial"}

# matrix_rank_mod shape buckets: rows * cols below this is "small"
LARGE_ENTRIES = 100_000
# primes below this take the float64 panel kernel ("p23"), the rest int64 ("p31")
FLOAT_KERNEL_LIMIT = 1 << 23


def _rank_info(args, kwargs, result):
    matrix, p = args[0], args[1]
    rows, cols = matrix.shape
    return (int(rows), int(cols), int(p), int(result))


def _dim_info(args, kwargs, result):
    n, d, mults = args[0], args[1], args[2]
    config = args[3] if len(args) > 3 else kwargs.get("config")
    active = [int(m) for m in mults if m > 0]
    key = (int(n), int(d), tuple(sorted(set(active))), int(config.prime), int(config.seed))
    return (key, len(active))


# result summaries recorded on a span; the arguments themselves are not kept
_INFO = {
    "oracle.matrix_rank_mod": _rank_info,
    "oracle.linear_system_dim": _dim_info,
    "reduction.prove_empty": lambda args, kwargs, result: result is not None,
    "reduction.verify_certificate": lambda args, kwargs, result: bool(result.ok),
}


def public_functions() -> dict[str, object]:
    """Qualified name -> function for every public function defined in the
    traced modules (plain functions and lru_cache wrappers), but UNTRACED."""
    out = {}
    for short in MODULES:
        module = sys.modules[f"fatpoints.{short}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or isinstance(obj, type):
                continue
            is_function = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_clear")
            name = f"{short}.{attr}"
            if (is_function and getattr(obj, "__module__", None) == module.__name__
                    and name not in UNTRACED):
                out[name] = obj
    return out


def package_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fatpoints" or name.startswith("fatpoints."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}
        self._rebound: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = done = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op,
                                info(args, kwargs, result) if done and info else None)

        if hasattr(func, "cache_clear"):
            traced.cache_clear = func.cache_clear
        return traced

    def install(self) -> None:
        originals = public_functions()
        wrappers = {id(f): self._wrap(name, f) for name, f in originals.items()}
        self._originals = {id(f): f for f in originals.values()}
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._rebound):
            setattr(module, attr, obj)
        self._rebound.clear()

    def unbound_aliases(self) -> list[str]:
        """Module attributes that still hold an unwrapped original."""
        return [f"{m.__name__}.{attr}" for m in package_modules()
                for attr, obj in vars(m).items()
                if id(obj) in self._originals]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write('["name", "start", "end", "parent", "op", "info"]\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + t

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for short in MODULES:
        put(f"{short}.self_s", sum(t for n, t in selfs.items() if n.startswith(short + ".")), "s")

    rank = {f"{cls}.{size}": [0, 0.0] for cls in ("p23", "p31") for size in ("small", "large")}
    work = {cls: [0, 0] for cls in ("p23", "p31")}
    for (name, start, end, _, _, info) in spans:
        if name != "oracle.matrix_rank_mod" or info is None:
            continue
        rows, cols, p, r = info
        cls = "p23" if p < FLOAT_KERNEL_LIMIT else "p31"
        size = "small" if rows * cols < LARGE_ENTRIES else "large"
        rank[f"{cls}.{size}"][0] += 1
        rank[f"{cls}.{size}"][1] += end - start
        work[cls][0] += rows * cols
        work[cls][1] += r * rows * cols
    for key, (count, secs) in rank.items():
        put(f"oracle.matrix_rank_mod.{key}.calls", count, "count")
        put(f"oracle.matrix_rank_mod.{key}.s", secs, "s")
    for cls, (entries, ops) in work.items():
        put(f"oracle.matrix_rank_mod.{cls}.entries", entries, "count")
        put(f"oracle.matrix_rank_mod.{cls}.ops", ops, "count")
        share = (rank[f"{cls}.small"][1] + rank[f"{cls}.large"][1]) / wall_s
        put(f"oracle.matrix_rank_mod.{cls}.share", share, "frac")

    # a call is prefix-shared when an earlier call with the same
    # (n, d, m, prime, seed) used fewer points
    fewest: dict[tuple, int] = {}
    shared = dims = 0
    for name, _, _, _, _, info in spans:
        if name != "oracle.linear_system_dim" or info is None:
            continue
        key, points = info
        dims += 1
        if key in fewest and fewest[key] < points:
            shared += 1
        fewest[key] = min(points, fewest.get(key, points))
    put("oracle.linear_system_dim.calls", calls.get("oracle.linear_system_dim", 0), "count")
    put("oracle.linear_system_dim.self_s", selfs.get("oracle.linear_system_dim", 0.0), "s")
    put("oracle.linear_system_dim.self_share",
        selfs.get("oracle.linear_system_dim", 0.0) / wall_s, "frac")
    put("oracle.linear_system_dim.prefix_shared_frac", shared / dims if dims else 0.0, "frac")

    alpha_calls = calls.get("oracle.alpha_symbolic_power", 0)
    alpha_dims = sum(1 for name, _, _, parent, _, _ in spans
                     if name == "oracle.linear_system_dim" and parent >= 0
                     and spans[parent][0] == "oracle.alpha_symbolic_power")
    put("oracle.alpha_symbolic_power.calls", alpha_calls, "count")
    put("oracle.alpha_symbolic_power.self_s", selfs.get("oracle.alpha_symbolic_power", 0.0), "s")
    put("oracle.alpha_symbolic_power.dims_per_call",
        alpha_dims / alpha_calls if alpha_calls else 0.0, "count")
    put("oracle.spans", sum(c for n, c in calls.items() if n.startswith("oracle.")), "count")

    for name in ("oracle.waldschmidt_upper_estimate", "facts.catalog",
                 "bounds.waldschmidt_lower_bound", "reduction.prove_empty",
                 "reduction.verify_certificate"):
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.self_s", selfs.get(name, 0.0), "s")
    for name in ("bounds.hh_check", "bounds.chudnovsky_check",
                 "bounds.containment_threshold", "cli.run"):
        put(f"{name}.self_s", selfs.get(name, 0.0), "s")
    put("reduction.certificate_json.self_s",
        selfs.get("reduction.certificate_to_json", 0.0)
        + selfs.get("reduction.certificate_from_json", 0.0), "s")

    for name, key in (("reduction.prove_empty", "found_frac"),
                      ("reduction.verify_certificate", "ok_frac")):
        flags = [info for n, _, _, _, _, info in spans if n == name and info is not None]
        put(f"{name}.{key}", sum(flags) / len(flags) if flags else 0.0, "frac")
    return out
