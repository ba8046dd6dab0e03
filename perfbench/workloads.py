"""Workload inputs, the operation each workload times, and its reference checks.

`make_inputs` runs in run.py and never imports gfe25.
`run` runs in the fresh interpreter of one operation, after the package is
imported, and is the timed operation.  It splits the operation into phases by
calling `mark` at the end of each, and returns the canonical outputs (hashed
into the printed digest) and a list of failed checks.
"""

import hashlib
import json
import os

WORKLOADS = ("sextic_field", "verdict_rest")

# Index 16 over the field K16: its unit-sieve survivors at the 30 sieve
# primes, and the (u, v) whose value H(u, v) is the surviving unit times a
# fifth power.
SEXTIC_FIELD = "K16"
SEXTIC_INDEX = 16
SEXTIC_SURVIVORS = [(4, 2, 2)]
SEXTIC_WITNESS = (0, 1)
# the sieve primes: p = 1 mod 5 below 700
SIEVE_PRIMES = tuple(p for p in range(11, 700, 10)
                     if all(p % d for d in range(2, int(p**0.5) + 1)))

VERDICT_STAGES = {"syzygy": "pass", "table4": "pass", "table5": "pass",
                  "genus2": "conditional-pass", "gauss": "conditional-pass",
                  "sqrt5": "conditional-pass",
                  "solutions": "conditional-pass"}


def make_inputs(workload, seed):
    """The inputs of every operation of one run.  Neither workload varies
    them with the seed: the other fields and indices of the sextic stage
    cost from 15% to 40% more or less than K16 and index 16, and that
    difference would read as noise across seeds."""
    if workload == "sextic_field":
        return {"field": SEXTIC_FIELD, "index": SEXTIC_INDEX}
    if workload == "verdict_rest":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def digest(outputs):
    return hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def run(workload, inputs, mark):
    """The timed operation; `mark(name)` closes a phase named `name`."""
    return {"sextic_field": _sextic_field,
            "verdict_rest": _verdict_rest}[workload](inputs, mark)


# ---------------------------------------------------------------------------

def _sextic_field(inputs, mark):
    """The sextic stage's work for one index: split, sieve, witness, Frey."""
    from gfe25 import algebra, descent, frey

    field, i = inputs["field"], inputs["index"]
    rep = int(field[1:])
    problems, out = [], {"field": field, "index": i}
    if len(descent.verify_unit_data(rep)) != 3:
        problems.append(f"{field}: unit data does not give three generators")
    mark("verify")
    split = descent.sextic_split(i)
    mark("split")
    survivors = [tuple(e) for e in descent.unit_sieve(i, primes=SIEVE_PRIMES)]
    mark("sieve")
    out.update(res_support=list(split.res_support),
               primes_above_5=split.primes_above_5,
               survivors=[list(e) for e in survivors])
    if not set(split.res_support) <= {2, 3, 5} or split.primes_above_5 != 1:
        problems.append(f"i={i}: resultant support {split.res_support}, "
                        f"{split.primes_above_5} primes above 5")
    if survivors != SEXTIC_SURVIVORS:
        problems.append(f"i={i}: survivors {survivors}, expected "
                        f"{SEXTIC_SURVIVORS}")
    else:
        u, v = SEXTIC_WITNESS
        eta = descent.class_unit(rep, survivors[0])
        K = split.field
        val = split.H.evaluate(K.from_int(u), K.from_int(v)) * eta.inverse()
        root = algebra.nf_fifth_root(val)
        if root is None or root**5 != val:
            problems.append(f"i={i}: H({u}, {v}) / unit has no fifth root")
        else:
            out["fifth_root"] = [str(c) for c in root.coords]
    mark("witness")
    out["hypotheses_hold"] = frey.congruence_scan(i).all_hypotheses_hold
    if not out["hypotheses_hold"]:
        problems.append(f"i={i}: irreducibility hypotheses fail mod 72")
    mark("frey")
    return out, problems


def _verdict_rest(inputs, mark):
    """The pipeline without the sextic stage, then again from its cache."""
    from gfe25 import cli

    cache = os.environ["XDG_CACHE_HOME"]
    problems = []
    if os.listdir(cache):
        problems.append("the report cache was not empty at the start")
    stages = set(cli.STAGE_ORDER) - {"sextic"}
    cfg = {"height": None, "depth": 3, "mod25": True, "cache": True,
           "primes": None}
    fresh = json.loads(cli.emit_report(cli.run_pipeline(stages, cfg)))
    mark("fresh")
    if not os.listdir(cache):
        problems.append("the first pass wrote no report cache entry")
    cached = json.loads(cli.emit_report(cli.run_pipeline(stages, cfg)))
    mark("cached")
    for doc in (fresh, cached):
        for report in doc["reports"]:
            del report["seconds"]
    if fresh["verdict"] != "conditional-pass":
        problems.append(f"verdict {fresh['verdict']}, expected "
                        "conditional-pass")
    got = {r["stage"]: r["verdict"] for r in fresh["reports"]}
    if got != VERDICT_STAGES:
        problems.append(f"stage verdicts {got}, expected {VERDICT_STAGES}")
    if cached != fresh:
        problems.append("the cached document differs from the fresh one")
    return fresh, problems
