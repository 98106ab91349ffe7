"""Span recorder and per-layer fold for the traced benchmark run.

``Tracer.install`` wraps every public function that each ``realgw`` layer
module defines, found by introspection, and rebinds the wrapper wherever a
``realgw`` module holds the same function object: its own globals, names
other modules imported with ``from ... import``, and values of module-level
dicts such as registries.  Renamed or deleted functions therefore need no
change here.

Every wrapped call becomes one span (name, layer, start, end, parent span,
request id).  Spans stay in memory, in flat arrays, until ``dump`` writes
them to a file at the end of the request; ``fold_file`` reads such a file
back and adds it to a ``LayerTotals``.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time

LAYERS = ("series", "multicover", "signs", "graphs", "verify", "cli")

# Series functions that convert rationals to and from the p/q wire form.
WIRE_FUNCTIONS = ("parse_rational", "format_rational")

_ARRAYS = (("name_ids", "i"), ("parents", "i"), ("requests", "i"),
           ("starts", "q"), ("ends", "q"))


def _is_coefficient_lookup(layer: str, name: str) -> bool:
    return layer == "multicover" and "coefficient" in name


class Tracer:
    """Records spans at calls into the public functions of each layer."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []
        self.request = 0
        self.current = -1
        self._rebound: list[tuple[dict, object, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; keep the wrappers."""
        for attr, code in _ARRAYS:
            setattr(self, attr, array.array(code))
        self.coeffs_built = 0
        self.coeff_keys: set = set()
        self.tuples = 0

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"realgw.{layer}")
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "realgw" and not module_name.startswith("realgw."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                self._rebind(namespace, key, value, wrappers)
                if isinstance(value, dict):
                    for inner_key, inner in list(value.items()):
                        self._rebind(value, inner_key, inner, wrappers)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._rebound):
            container[key] = original
        self._rebound.clear()

    def _rebind(self, container: dict, key, value, wrappers: dict) -> None:
        if not callable(value):
            return
        try:
            wrapper = wrappers.get(value)
        except TypeError:  # unhashable callable
            return
        if wrapper is not None:
            container[key] = wrapper
            self._rebound.append((container, key, value))

    def _wrap(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append((layer, name))
        clock = time.perf_counter_ns
        tracer = self
        after = self._result_hook(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            index = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(parent)
            tracer.requests.append(tracer.request)
            tracer.ends.append(0)
            tracer.current = index
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                tracer.current = parent
            if after is not None:
                after(parent, args, kwargs, result)
            return result

        return traced

    def _result_hook(self, layer: str, name: str):
        """Counts taken from arguments or results at the layer boundary."""
        if layer == "series":
            def count_built(parent, args, kwargs, result):
                if parent >= 0 and self._layer_of(parent) == "series":
                    return
                coefficients = getattr(result, "coefficients", None)
                if coefficients is not None:
                    self.coeffs_built += len(coefficients)
            return count_built
        if _is_coefficient_lookup(layer, name):
            def record_key(parent, args, kwargs, result):
                self.coeff_keys.add((args, tuple(sorted(kwargs.items()))))
            return record_key
        if layer == "verify":
            def count_tuples(parent, args, kwargs, result):
                size = getattr(result, "grid_size", None)
                if isinstance(size, int):
                    self.tuples += size
            return count_tuples
        return None

    def _layer_of(self, span: int) -> str:
        return self.names[self.name_ids[span]][0]

    def dump(self, path: str) -> None:
        """Write the recorded spans: one JSON header line, then the arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "coeffs_built": self.coeffs_built,
            "coeff_distinct": len(self.coeff_keys),
            "tuples": self.tuples,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(handle)


class LayerTotals:
    """Sums over folded span files, turned into per-layer metrics."""

    def __init__(self) -> None:
        self.count: dict[tuple[str, str], int] = {}
        self.incl: dict[tuple[str, str], int] = {}
        self.self_ns: dict[tuple[str, str], int] = {}
        self.outer_count: dict[tuple[str, str], int] = {}
        self.outer_incl: dict[tuple[str, str], int] = {}
        self.coeff_series_ns = 0
        self.coeffs_built = 0
        self.coeff_distinct = 0
        self.tuples = 0
        self.units = 0  # span files folded: traced processes or library passes
        self.main_ns: list[int] = []

    def fold_file(self, path: str) -> None:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            n = header["spans"]
            arrays = {}
            for attr, code in _ARRAYS:
                arrays[attr] = array.array(code)
                arrays[attr].fromfile(handle, n)
        names = [tuple(pair) for pair in header["names"]]
        layer_of = [layer for layer, _ in names]
        is_lookup = [_is_coefficient_lookup(layer, name) for layer, name in names]
        name_ids, parents = arrays["name_ids"], arrays["parents"]
        durations = array.array("q", (end - start for start, end in zip(arrays["starts"], arrays["ends"])))
        children = array.array("q", bytes(8 * n))
        for i, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += durations[i]
        k = len(names)
        count, incl, self_ns = [0] * k, [0] * k, [0] * k
        outer_count, outer_incl = [0] * k, [0] * k
        for i in range(n):
            nid = name_ids[i]
            duration = durations[i]
            parent = parents[i]
            count[nid] += 1
            incl[nid] += duration
            self_ns[nid] += duration - children[i]
            if parent < 0 or layer_of[name_ids[parent]] != layer_of[nid]:
                outer_count[nid] += 1
                outer_incl[nid] += duration
                if parent >= 0 and is_lookup[name_ids[parent]]:
                    self.coeff_series_ns += duration
            if parent < 0 and names[nid] == ("cli", "main"):
                self.main_ns.append(duration)
        for nid, key in enumerate(names):
            for table, values in ((self.count, count), (self.incl, incl),
                                  (self.self_ns, self_ns),
                                  (self.outer_count, outer_count),
                                  (self.outer_incl, outer_incl)):
                table[key] = table.get(key, 0) + values[nid]
        self.coeffs_built += header["coeffs_built"]
        self.coeff_distinct += header["coeff_distinct"]
        self.tuples += header["tuples"]
        self.units += 1

    def metrics(self, ops: int, process_walls_s: list[float], stdout_bytes: int,
                overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics.

        Times (``_s``) and counts are per traced operation (CLI process or
        library call), except: ``multicover.coeff_us`` is per coefficient
        lookup, without the series work under it; ``signs.call_ns`` is signs
        self time per call into the layer; ``graphs.graph_us`` is graphs time
        per graph checked; ``multicover.coeff_distinct`` counts distinct
        lookups per traced process (library: per pass);
        ``verify.<identity>_s`` is per run of that identity; the ``cli``
        metrics are per traced process.  ``series.build_s`` is series time
        outside the wire functions, ``series.useful_ratio`` distinct lookups
        over coefficients built (0 when none were built).
        """
        ns = 1e-9

        def total(table, layer, keep=lambda name: True):
            return sum(v for (l, n), v in table.items() if l == layer and keep(n))

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        def wire(name):
            return name in WIRE_FUNCTIONS

        def generate(name):
            return "generate" in name

        def json_io(name):
            return "json" in name

        ops = max(ops, 1)
        processes = len(process_walls_s)
        lookups = total(self.count, "multicover", lambda n: _is_coefficient_lookup("multicover", n))
        lookup_ns = total(self.incl, "multicover", lambda n: _is_coefficient_lookup("multicover", n))
        signs_calls = total(self.outer_count, "signs")
        signs_self = total(self.self_ns, "signs")
        out = {
            "series.build_s": total(self.outer_incl, "series", lambda n: not wire(n)) * ns / ops,
            "series.coeffs_built": self.coeffs_built / ops,
            "series.useful_ratio": ratio(self.coeff_distinct, self.coeffs_built),
            "series.wire_s": total(self.outer_incl, "series", wire) * ns / ops,
            "multicover.coeff_calls": lookups / ops,
            "multicover.coeff_distinct": ratio(self.coeff_distinct, self.units),
            "multicover.coeff_us": ratio(lookup_ns - self.coeff_series_ns, lookups) / 1e3,
            "multicover.transform_s":
                total(self.self_ns, "multicover", lambda n: "transform" in n) * ns / ops,
            "signs.calls": signs_calls / ops,
            "signs.self_s": signs_self * ns / ops,
            "signs.call_ns": ratio(signs_self, signs_calls),
            "verify.tuples": self.tuples / ops,
            "verify.self_s": total(self.self_ns, "verify") * ns / ops,
            "graphs.generated": total(self.outer_count, "graphs", generate) / ops,
            "graphs.gen_s": total(self.outer_incl, "graphs", generate) * ns / ops,
            "graphs.check_s": total(
                self.outer_incl, "graphs", lambda n: not generate(n) and not json_io(n)) * ns / ops,
            "graphs.json_s": total(self.outer_incl, "graphs", json_io) * ns / ops,
            "graphs.graph_us": ratio(
                total(self.outer_incl, "graphs"),
                total(self.outer_count, "graphs", lambda n: "congruence" in n)) / 1e3,
            "cli.processes": float(processes),
            "cli.startup_s": ratio(sum(process_walls_s) - sum(self.main_ns) * ns, processes),
            "cli.main_s": ratio(total(self.self_ns, "cli") * ns, processes),
            "cli.stdout_bytes": ratio(stdout_bytes, processes),
            "trace.overhead_ratio": overhead_ratio,
        }
        for (layer, name), incl in self.incl.items():
            if layer == "verify" and name.startswith("check_"):
                out[f"verify.{name[len('check_'):]}_s"] = ratio(incl * ns, self.count[(layer, name)])
        return out
