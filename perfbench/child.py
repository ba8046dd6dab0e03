"""One benchmark operation, run by run.py in a fresh interpreter.

    python3 child.py SPEC_JSON

SPEC_JSON names the checkout root, the workload (null for a set-up-only
probe), its inputs, whether to trace, and the file the result is written to.
A probe also times `host_gauge`, after its set-up.
The result holds the CLOCK_MONOTONIC instants at which the package was imported
and its bundled data verified, and at which each phase of the operation ended,
so run.py can split the time from spawn to exit into set-up and phases.
"""

import json
import os
import platform
import sys
import time
from fractions import Fraction

import spans
import workloads


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import mpmath
    import numpy
    import sympy

    import gfe25
    # cli imports every other module, so set-up covers the whole package
    from gfe25 import _kernels, bforms, cli, frey, padic  # noqa: F401

    if not os.path.abspath(gfe25.__file__).startswith(
            os.path.abspath(src) + os.sep):
        sys.exit(f"gfe25 was imported from {gfe25.__file__}, "
                 f"not from {src}")
    bforms.verify_forms_data()
    padic.expected_table5()
    frey.ito_w_rows()
    result = {"ready": time.monotonic(),
              "env": {"backend": _kernels.active_backend(),
                      "python": platform.python_version(),
                      "sympy": sympy.__version__, "numpy": numpy.__version__,
                      "mpmath": mpmath.__version__}}
    workload = spec["workload"]
    if workload is None:
        result["gauge_s"] = host_gauge()
    else:
        marks = []
        tracer = None
        if spec["trace"]:
            tracer = spans.Tracer()
            tracer.install(spans.targets())
        t0 = time.perf_counter()
        try:
            outputs, problems = workloads.run(
                workload, spec["inputs"],
                lambda name: marks.append((name, time.monotonic())))
        except Exception as e:  # a crash is a failed check, not a slow run
            outputs, problems = None, [f"raised {e!r}"]
        result.update(work_s=time.perf_counter() - t0, marks=marks,
                      digest=workloads.digest(outputs), problems=problems)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["overhead_s"] = spans.wrapper_cost() * sum(
                tracer.calls.values())
    with open(spec["result"], "w") as f:
        json.dump(result, f)


def host_gauge():
    """Seconds for a fixed mix of pure-Python work: small-integer arithmetic,
    Fraction arithmetic, and random reads from a 150,000-entry dict.  It
    runs nothing from gfe25, so it reads the speed of the host, not the
    program's."""
    t0 = time.perf_counter()
    x = 0
    for k in range(200_000):
        x = (x * 31 + k) % 1_000_003
    fractions = {}
    for k in range(1, 20_000):
        fractions[k % 4096] = Fraction(k % 1009, (k * 7) % 1013 + 1) + \
            Fraction(k % 97, k % 89 + 1)
    n = 150_000
    keys = [(k * 7919) % 1_000_003 + 1000 for k in range(n)]
    index = {key: k for k, key in enumerate(keys)}
    total = 0
    for k in range(n):
        total += index[keys[(k * 104_729) % n]]
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
