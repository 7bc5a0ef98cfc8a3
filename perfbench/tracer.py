"""Per-layer tracing of httool from outside the program.

`Tracer.install()` wraps every public function of each layer module and
patches the wrapper into every `httool.*` namespace that binds the same
function object (a `from .x import f` binds a name of its own, so patching
only the defining module would miss those calls).  While `active`, each call
records a span (its number in call order, function, parent span, operation,
start, end) in two flat arrays in memory; self time is the span's duration
minus the time its child spans cover.  Spans are written out by
`write_spans` once the run has ended.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
import types

LAYERS = ("weilcheck", "exactpoly", "_gfp", "_intfactor", "padicpoly", "qform", "cmfield", "_linalg", "pipeline")

# The functions whose calls and self time are reported, by module.
REPORTED = {
    "qform": ("k3_invariants", "invariants", "hilbert_symbol", "diagonalize", "construct_with_invariants"),
    "cmfield": ("trace_form", "signature_of", "find_lambda", "cm_to_k3", "disc_identity_check"),
    "_intfactor": ("factorize", "is_prime"),
    "exactpoly": ("isolate_real_roots", "factor_with_unit", "sturm_count"),
    "padicpoly": ("newton_polygon", "negative_part_verdict"),
    "weilcheck": ("enumerate_candidates", "check_all"),
    "_gfp": ("berlekamp",),
    "pipeline": ("run", "revalidate_certificate"),
}


def _admissible(_args, result) -> bool:
    return result.admissible


def _slope_unknown(_args, result) -> bool:
    return result[0].value.value == "unknown"


# Outcome counters: function -> predicate on (args, result); the tracer counts
# the calls for which it holds.
OUTCOMES = {"weilcheck.check_all": _admissible, "padicpoly.negative_part_verdict": _slope_unknown}
# Functions whose distinct first arguments are counted.
DISTINCT_ARGS = ("_intfactor.factorize",)


class Tracer:
    def __init__(self, package: str = "httool"):
        self.package = package
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.true_outcomes: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.span_ints = array.array("i")  # span number, function, parent, operation
        self.span_times = array.array("d")  # start, end
        self.span_count = 0
        self._stack: list[list] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self.active = False
        self.op = 0

    def _wrap(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        outcome = OUTCOMES.get(name)
        distinct = self.distinct.setdefault(name, set()) if name in DISTINCT_ARGS else None
        if outcome is not None:
            self.true_outcomes[name] = 0
        ints, times, stack, clock = self.span_ints, self.span_times, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            frame = [self.span_count, 0.0]
            self.span_count += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[fid] += 1
                self.self_s[fid] += duration - frame[1]
                ints.extend((frame[0], fid, parent, self.op))
                times.extend((start, end))
            if distinct is not None:
                distinct.add(args[0])
            if outcome is not None and outcome(args, result):
                self.true_outcomes[name] += 1
            return result

        return wrapper

    def install(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.package or module_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def function_stats(self) -> dict[str, tuple[int, float]]:
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def write_spans(self, path) -> dict:
        """Write the spans in the order they ended: all int32 quadruples
        (span number, function index, parent span number or -1, operation),
        then all float64 pairs (start, end), native byte order.  Returns the
        layout, to be stored next to the file."""
        with open(path, "wb") as out:
            self.span_ints.tofile(out)
            self.span_times.tofile(out)
        return {
            "file": str(path.name),
            "count": len(self.span_times) // 2,
            "layout": "int32[count][4] (span, function, parent, operation) then float64[count][2] (start, end)",
            "byteorder": sys.byteorder,
            "functions": self.names,
        }
