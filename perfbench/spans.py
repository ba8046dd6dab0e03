"""Per-layer timing for the traced run, recorded from outside the package.

Each layer is a public function of a gfe25 module.  `install` replaces it,
under the name its caller looks it up by, with a wrapper that times every
call and charges the time to the function's own entry.  A call's self time
is its duration minus the durations of the wrapped calls made inside it, so
the self times of all entries partition the time spent inside wrapped code.
"""

import time
import types
from collections import defaultdict

# metric prefix of every wrapped layer, as `module.function`; the
# underscore of `_kernels` is dropped because metric names start with a letter
LAYERS = (
    "cli.run_pipeline",
    "cli.stage.syzygy",
    "cli.stage.table4",
    "cli.stage.table5",
    "cli.stage.genus2",
    "cli.stage.gauss",
    "cli.stage.sqrt5",
    "cli.stage.solutions",
    "descent.verify_unit_data",
    "descent.sextic_split",
    "descent.unit_sieve",
    "descent.class_unit",
    "descent.rational_split",
    "descent.gauss_family",
    "descent.sqrt5_family",
    "algebra.factor_nf",
    "algebra.residue_split",
    "algebra.nf_fifth_root",
    "algebra.NFElement.inverse",
    "algebra.NFElement.norm",
    "algebra.Fq.fifth_power_class",
    "bforms.binary_resultant",
    "frey.congruence_scan",
    "padic.verify_table5",
    "search.rational_points",
    "kernels.prescreen",
)

# counters derived from the arguments and results of wrapped calls
COUNTERS = ("search.candidates", "search.prescreen_survivors",
            "search.points_found")


def targets():
    """(prefix, owner, attribute) for every place a layer is looked up.

    A function bound into another module at import time (`from .x import f`)
    is wrapped there too, under the same prefix, because calls through that
    binding bypass the defining module's attribute.
    """
    from gfe25 import (_kernels, algebra, bforms, cli, descent, frey, padic,
                       search)

    out = [("cli.run_pipeline", cli, "run_pipeline")]
    out += [(f"cli.stage.{name}", cli.STAGES, name)
            for name in ("syzygy", "table4", "table5", "genus2", "gauss",
                         "sqrt5", "solutions")]
    for name in ("verify_unit_data", "sextic_split", "unit_sieve",
                 "class_unit", "rational_split", "gauss_family",
                 "sqrt5_family"):
        out.append((f"descent.{name}", descent, name))
    out += [
        ("algebra.factor_nf", algebra, "factor_nf"),
        ("algebra.residue_split", algebra, "residue_split"),
        ("algebra.residue_split", descent, "residue_split"),
        ("algebra.nf_fifth_root", algebra, "nf_fifth_root"),
        ("algebra.NFElement.inverse", algebra.NFElement, "inverse"),
        ("algebra.NFElement.norm", algebra.NFElement, "norm"),
        ("algebra.Fq.fifth_power_class", algebra.Fq, "fifth_power_class"),
        ("bforms.binary_resultant", bforms, "binary_resultant"),
        ("bforms.binary_resultant", descent, "binary_resultant"),
        ("frey.congruence_scan", frey, "congruence_scan"),
        ("padic.verify_table5", padic, "verify_table5"),
        ("search.rational_points", search, "rational_points"),
        ("search.rational_points", cli, "rational_points"),
        ("kernels.prescreen", _kernels, "prescreen"),
    ]
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total = defaultdict(float)     # inclusive, outermost frames only
        self.self_time = defaultdict(float)
        self.outermost = 0.0                # inclusive time of outermost calls
        self.counts = defaultdict(int)
        self.depth = defaultdict(int)
        self.stack = []                     # child time of each open frame

    def wrap(self, prefix, fn, on_result=None):
        def wrapper(*args, **kwargs):
            self.calls[prefix] += 1
            self.depth[prefix] += 1
            self.stack.append(0.0)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                children = self.stack.pop()
                self.self_time[prefix] += dt - children
                if self.stack:
                    self.stack[-1] += dt
                else:
                    self.outermost += dt
                self.depth[prefix] -= 1
                if not self.depth[prefix]:
                    self.total[prefix] += dt
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def install(self, places):
        """Wrap every (prefix, owner, attribute); an owner is a module, a
        class (the method is replaced on the class) or a dict."""
        for prefix, owner, attr in places:
            if isinstance(owner, dict):
                fn = owner[attr]
            else:
                fn = getattr(owner, attr)
            wrapped = self.wrap(prefix, fn, _ON_RESULT.get(prefix))
            if isinstance(owner, dict):
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)

    def metrics(self, layers=LAYERS):
        """Metric name -> value: calls, inclusive and self seconds per layer,
        the counters, and the time spent inside wrapped calls."""
        out = {}
        for prefix in layers:
            out[f"{prefix}.calls"] = self.calls[prefix]
            out[f"{prefix}.s"] = self.total[prefix]
            out[f"{prefix}.self_s"] = self.self_time[prefix]
        for name in COUNTERS:
            out[name] = self.counts[name]
        out["trace.wrapped_s"] = self.outermost
        return out


def wrapper_cost(n=100_000):
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    ns = types.SimpleNamespace(f=lambda: None)
    times = []
    for wrap in (False, True):
        if wrap:
            Tracer().install([("noop", ns, "f")])
        t0 = time.perf_counter()
        for _ in range(n):
            ns.f()
        times.append(time.perf_counter() - t0)
    return max(times[1] - times[0], 0.0) / n


def _count_prescreen(counts, args, mask):
    counts["search.candidates"] += len(args[1])
    counts["search.prescreen_survivors"] += int(mask.sum())


def _count_points(counts, args, points):
    counts["search.points_found"] += len(points)


_ON_RESULT = {"kernels.prescreen": _count_prescreen,
              "search.rational_points": _count_points}
