"""Command-line driver `gfe`.

Runs the verification pipeline stage by stage (polynomial syzygies, the two
classification tables, the four descent sections, and the final summary
table), emits deterministic JSON or markdown reports, and exposes each
computation directly through subcommands.

The summary table is assembled from the reports of the stages it consumes
(CONSUMES).  Reports are cached under digests of their options, data and code.

Exit codes: 0 = all stages pass unconditionally; 10 = at least one stage
passes only conditionally on imported data or external completeness facts;
1 = a computed value disagrees with the recorded expectation, or a
derivation of the descent does not hold (descent.DerivationFailed), which
run_pipeline reports as that stage's mismatch and a direct subcommand as a
`mismatch:` line on stderr; 2 = broken environment, data or arguments
(missing/invalid data files, bad arguments).
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebra, bforms, descent, frey, padic, poly
from .bforms import ALL_INDICES, Solution, assemble_solution, edwards_triple
from .search import (
    AffinePoint,
    HyperellipticModel,
    InfinitePoint,
    mumford_check,
    rational_points,
)

# ---------------------------------------------------------------------------
# assumption tags for conditional verdicts

CLASS_NUMBER = "class-number-prime-to-5"
SELMER_D1D2 = "paper-selmer-emptiness-D1D2"
CHABAUTY = "paper-chabauty-completeness"
# the order reports list them in
TAGS = (CLASS_NUMBER, SELMER_D1D2, CHABAUTY)

# simplified genus-4 twist models (imported display data) and the Mumford
# divisors certified on them
D1T = (189, 1230, 3345, 5340, 6390, 3846, 3060, -60, 705, -120, 36)
D2T = (516, 3120, 8805, 14460, 15660, 11274, 6390, 1860, 645, -30, 9)
MUMFORD_DIVISORS = {
    "D1t": [
        ("Q_{-1,1}", [1, 3, 4, 2, 1], [-30, -90, -90, -60]),
        ("Q_{-1,2}",
         [Fraction(1, 9), Fraction(4, 9), 0, Fraction(-53, 27), 1],
         [Fraction(1118, 81), Fraction(8063, 81), Fraction(448, 3),
          Fraction(-52693, 243)]),
    ],
    "D2t": [
        ("Q_{-2,1}", [1, 3, 4, 2, 1], [-15, -45, -45, -30]),
        ("Q_{-2,2}",
         [Fraction(3, 5), Fraction(21, 5), Fraction(23, 5), Fraction(1, 5), 1],
         [Fraction(666, 25), Fraction(1982, 25), Fraction(321, 25),
          Fraction(-683, 25)]),
    ],
}

# the five residual equations of the summary table, with the (u, v) each
# would force; representatives are tied to descent.SIEVE_WITNESSES
RESIDUAL_INDICES = (22, 6, 24, 5, 16)
SQRT5_INDICES = (2, 10, 26)  # h splits into two sextics over Q(sqrt5)
# h irreducible over Q(sqrt5) and no sextic split; no (u, v) survives at 2
EMPTY_AT_2_INDICES = (7, 11, 19)


class DataProblem(Exception):
    """Environment, data or argument error: missing or invalid input files,
    or arguments outside what a command accepts."""


# ---------------------------------------------------------------------------
# reports

@dataclass
class DescentReport:
    stage: str
    inputs: str                      # digest of stage name + options + data
    verdict: str                     # pass | conditional-pass | mismatch
    details: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    seconds: float = 0.0

    def as_dict(self):
        return {**vars(self), "details": _jsonable(self.details),
                "assumptions": list(self.assumptions),
                "artifacts": _jsonable(self.artifacts),
                "seconds": round(self.seconds, 3)}


def _jsonable(x):
    """JSON-safe copy: exact rationals as 'p/q' strings, points as strings."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        seq = [_jsonable(v) for v in x]
        return sorted(seq, key=str) if isinstance(x, (set, frozenset)) else seq
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    return str(x)


def emit_report(reports, fmt="json"):
    """Render a list of DescentReport as a stable JSON or markdown document.

    Field order is fixed; timing fields are reported but never enter any
    digest, so identical inputs give identical documents up to `seconds`.
    """
    if fmt == "json":
        doc = {"reports": [r.as_dict() for r in reports],
               "verdict": _overall_verdict(reports)}
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"
    if fmt != "markdown":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for r in reports:
        lines.append(f"## {r.stage} — {r.verdict.upper()} ({r.seconds:.1f}s)")
        lines.append("")
        if r.assumptions:
            lines.append("Assumes: " + ", ".join(r.assumptions))
            lines.append("")
        for d in r.details:
            lines.append(f"- MISMATCH: {d}")
        if r.details:
            lines.append("")
        table = r.artifacts.get("table")
        if table:
            cols = list(table[0])
            lines.append("| " + " | ".join(cols) + " |")
            lines.append("|" + "---|" * len(cols))
            for row in table:
                lines.append("| " + " | ".join(
                    str(_jsonable(row[c])) for c in cols) + " |")
            lines.append("")
        for key, val in r.artifacts.items():
            if key == "table":
                continue
            lines.append(f"- {key}: {json.dumps(_jsonable(val))}")
        lines.append("")
    lines.append(f"**Overall: {_overall_verdict(reports)}**")
    return "\n".join(lines) + "\n"


def _overall_verdict(reports):
    if any(r.verdict == "mismatch" for r in reports):
        return "mismatch"
    if any(r.verdict == "conditional-pass" for r in reports):
        return "conditional-pass"
    return "pass"


def exit_code(reports):
    return {"pass": 0, "conditional-pass": 10,
            "mismatch": 1}[_overall_verdict(reports)]


# ---------------------------------------------------------------------------
# stage implementations: each returns (failures, assumptions, artifacts); a
# descent.DerivationFailed they raise becomes a mismatch in run_pipeline

def _expect(fails, what, got, want):
    """Record the mismatch "what: got ..., expected ..." unless got == want."""
    if got != want:
        fails.append(f"{what}: got {got}, expected {want}")


def _read_data(what, read, *errors):
    """read(), with a data file that is missing, unreadable or fails a check
    (one of errors) turned into DataProblem."""
    try:
        return read()
    except (FileNotFoundError, json.JSONDecodeError, KeyError, *errors) as e:
        raise DataProblem(f"{what}: {e}") from e


def _solutions(i, uvs):
    """(a, b, z) of the primitive solutions that assemble_solution builds
    from the pairs (u, v) of index i, with both signs of a."""
    sols = (assemble_solution(i, u, v, s) for u, v in uvs for s in (1, -1))
    return {(s.a, s.b, s.z) for s in sols
            if isinstance(s, Solution) and s.primitive}


def _point_names(pts):
    """The points as sorted strings, the form the stages compare them in."""
    return sorted(str(p) for p in pts)


def _stage_syzygy(cfg):
    _read_data("forms data invalid", bforms.verify_forms_data,
               bforms.NonIntegralResult)
    fails = []
    for i in range(1, 28):
        t = edwards_triple(i)
        if (t.f.degree, t.g.degree, t.h.degree) != (30, 20, 12) \
                or not t.syzygy_holds():
            fails.append(f"f^2 + g^3 + h^5 != 0 for i={i}")
    return fails, [], {"identities_checked": 27, "degree": 60}


FACTORIZATION_TYPES = {
    descent.RATIONAL_SPLIT_INDICES: ("Q", [1, 1, 10]),
    descent.GAUSS_INDICES: ("Q", [4, 8]),
    SQRT5_INDICES: ("golden", [6, 6]),
    descent.SEXTIC_INDICES: ("golden", [12]),
    EMPTY_AT_2_INDICES: ("golden", [12]),
}


def _stage_table4(cfg):
    fails, rows, certificates = [], [], []
    for indices, (fld, want) in FACTORIZATION_TYPES.items():
        for i in indices:
            got, how = algebra.factorization_certificates(i, fld)
            rows.append({"i": i, "field": fld, "type": got})
            if how:
                certificates.append({"i": i, "factors": how})
            _expect(fails, f"factorization type over {fld} for i={i}", got,
                    want)
    rows.sort(key=lambda r: (r["field"], r["i"]))
    certificates.sort(key=lambda r: r["i"])
    return fails, [], {"rows_checked": len(rows), "table": rows,
                       "certificates": certificates}


def _stage_table5(cfg):
    fails, rows = [], []
    expected = _read_data("residue-class fixture unreadable",
                          padic.expected_table5)
    for i in sorted(expected):
        for p in (2, 3):
            _, got, want = padic.verify_table5(i, p, expected[i][p])
            rows.append({"i": i, "p": p, "classes": sorted(got)})
            _expect(fails, f"residue classes for i={i}, p={p}", sorted(got),
                    sorted(want))
    for i in EMPTY_AT_2_INDICES:
        classes = padic.sieve_residue_classes(i, 2).classes
        _expect(fails, f"surviving classes for i={i} at p=2",
                [str(c) for c in classes], [])
    return fails, [], {"rows_checked": len(rows),
                       "empty_at_2": list(EMPTY_AT_2_INDICES),
                       "table": rows}


def _stage_genus2(cfg):
    H = cfg.get("height") or 1000
    fails = []
    arts = {"alpha": {}, "gamma": {}, "search": {}, "lifts": {}}
    expected_gamma = {1: [2**8 * 5**3, 2**6 * 3**4 * 5**3],
                      20: [2**6 * 5**3, 2**8 * 3**4 * 5**3],
                      25: [2**8 * 5**3, 2**8 * 3**6 * 5**3]}
    expected_alpha = {1: [12], 20: [12], 25: [1]}
    splits = {}
    for i in descent.RATIONAL_SPLIT_INDICES:
        s = splits[i] = descent.rational_split(i)
        alphas = descent.alpha_candidates(i, s)
        arts["alpha"][i] = sorted(alphas)
        _expect(fails, f"alpha candidates for i={i}", arts["alpha"][i],
                expected_alpha[i])
        arts["gamma"][i] = sorted({m.coeffs[0] for a in alphas
                                   for m in descent.genus2_models(s, a)})
        _expect(fails, f"genus-2 constants for i={i}", arts["gamma"][i],
                expected_gamma[i])
    for gamma, want in ((32000, ["(-4, -176)", "(-4, 176)", "inf"]),
                        (8000, ["inf"])):
        model = HyperellipticModel((gamma, 0, 0, 0, 0, 1), f"y^2=x^5+{gamma}")
        pts = arts["search"][f"x^5+{gamma}"] = rational_points(model, H)
        _expect(fails, f"points of height <= {H} on y^2 = x^5 + {gamma}",
                _point_names(pts), want)
    affine = [p for p in arts["search"]["x^5+32000"]
              if isinstance(p, AffinePoint)]
    # index: (alpha, points to lift, expected lifts; None = does not lift)
    lift_cases = {1: (12, affine, {(0, 1), None}),
                  20: (12, [InfinitePoint(0)], {(1, 0)}),
                  25: (1, affine + [InfinitePoint(0)],
                       {(1, 1), (1, -1), None})}
    lifted = {}
    for i, (alpha, pts, want) in lift_cases.items():
        lifted[i] = [descent.genus2_back_substitute(splits[i], alpha, p)
                     for p in pts]
        _expect(fails, f"back-substitution for i={i}", set(lifted[i]), want)
    arts["lifts"] = {i: [uv if uv else "no-lift" for uv in v]
                     for i, v in lifted.items()}
    sols = set().union(*(_solutions(i, [uv for uv in uvs if uv])
                         for i, uvs in lifted.items()))
    arts["solutions"] = sorted(sols)
    _expect(fails, "family solutions", arts["solutions"],
            [(-1, -1, 0), (1, -1, 0)])
    # completeness of the two point lists beyond the height bound is imported
    return fails, [CHABAUTY], arts


def _stage_gauss(cfg):
    H = cfg.get("height") or 100
    fails = []
    arts = {}
    fams = {i: descent.gauss_family(i) for i in descent.GAUSS_INDICES}
    F4 = fams[4].F
    web = {
        "F18(X) = F4(-X)":
            fams[18].F == tuple(c * (-1)**k for k, c in enumerate(F4)),
        "F12 = F17 = -F4":
            fams[12].F == fams[17].F == tuple(-c for c in F4),
        "F3 = F27 = -F4(-X)":
            fams[3].F == fams[27].F
            == tuple(-c * (-1)**k for k, c in enumerate(F4)),
    }
    arts["relation_web"] = web
    fails += [f"relation {rel} failed" for rel, ok in web.items() if not ok]
    _expect(fails, "quartic/octic resultants",
            {i: d.resultant for i, d in fams.items()},
            {i: -144 for i in fams})
    arts["resultant"] = -144
    arts["F4"] = list(F4)
    model = HyperellipticModel(F4, "M4")
    pts = rational_points(model, H)
    arts["search_M4"] = pts
    _expect(fails, f"points of height <= {H} on M_4", _point_names(pts),
            ["(0, 0)", "(1, -12)", "(1, 12)"])
    origin = {}
    for i in (3, 4):
        origin[i] = sorted(descent.gauss_back_substitute(i, (0, 0)).solutions)
        _expect(fails, f"fiber over (0,0) for i={i}", origin[i],
                [(-1, 0), (0, -1), (0, 1), (1, 0)])
    arts["origin_fibers"] = origin
    contradictions = {}
    for i, pt, token in ((4, (1, 12), "+-4 = 6u^2"),
                         (4, (1, -12), "+-4 = 6u^2"),
                         (18, (-1, 12), "+-4 = -2v^2"),
                         (18, (-1, -12), "+-4 = -2v^2")):
        fib = descent.gauss_back_substitute(i, pt)
        contradictions[f"i={i}, {pt}"] = fib.contradiction
        _expect(fails, f"fiber over {pt} for i={i}",
                (sorted(fib.solutions), fib.contradiction), ([], token))
    arts["contradictions"] = contradictions
    sols = _solutions(3, origin[3]) | _solutions(4, origin[4])
    arts["solutions"] = sorted(sols)
    _expect(fails, "family solutions", arts["solutions"],
            [(0, -1, -1), (0, 1, 1)])
    # completeness of the M_4 point list rests on Chabauty (imported)
    return fails, [CHABAUTY], arts


def _sqrt5_resultants():
    """Resultants of the conjugate sextic factors of h and of the underlying
    quadratic forms, computed over Q(sqrt5): Res_x(1 - lam x^k - 5 x^2k,
    1 - lam' x^k - 5 x^2k) for k = 3 and 1, lam = (55 + 27 sqrt5)/2."""
    K = algebra.auxiliary_field("sqrt5")
    lam, lamc = K.element([55, 27], 2), K.element([55, -27], 2)

    def res(k):
        pad = [K.zero] * (k - 1)
        a, b = ([K.one, *pad, -m, *pad, K.from_int(-5)] for m in (lam, lamc))
        return int(poly.resultant(a, b).as_rational())

    return res(3), res(1)


def _stage_sqrt5(cfg):
    H = cfg.get("height") or 50
    fails = []
    arts = {}
    fams = {j: descent.sqrt5_family(j) for j in (-2, -1, 0, 1, 2)}
    arts["F0"] = list(fams[0].F.coeffs)
    res6, res2 = _sqrt5_resultants()
    arts["resultants"] = {"sextic_factors": res6, "quadratic_forms": res2}
    _expect(fails, "sextic-factor resultant", res6, -(3**18) * 5**6)
    _expect(fails, "quadratic-form resultant", res2, -(3**6) * 5**2)
    for label, coeffs in (("D1t", D1T), ("D2t", D2T)):
        model = HyperellipticModel(coeffs, label)
        for name, a, b in MUMFORD_DIVISORS[label]:
            if not mumford_check(model, a, b):
                fails.append(f"Mumford divisor {name} not on Jac({label})")
        pts = rational_points(model, H)
        arts[f"search_{label}"] = pts
        _expect(fails, f"points of height <= {H} on {label}",
                _point_names(pts), ["inf+", "inf-"])
    arts["mumford_checked"] = [name for divs in MUMFORD_DIVISORS.values()
                               for name, _, _ in divs]
    points_by_j = {j: rational_points(fams[j].D, H) for j in (0, -1, -2)}
    arts["search_D"] = {j: pts for j, pts in points_by_j.items()}
    expect_pts = {0: ["inf+", "inf-"],
                  -1: ["(1, -192)", "(1, 192)"],
                  -2: ["(1, -96)", "(1, 96)"]}
    for j, want in expect_pts.items():
        _expect(fails, f"points of height <= {H} on D_{j}",
                _point_names(points_by_j[j]), want)
    out = descent.sqrt5_conclude(points_by_j, d1_empty=True, d2_empty=True)
    arts["values"] = sorted(out.values)
    arts["uv"] = sorted(out.solutions)
    _expect(fails, "attainable v^6 + 5u^6 values", arts["values"],
            [1, 3**4, 2 * 3**4, 3**5, 2**5 * 3**4, 2**6 * 3**4])
    _expect(fails, "coprime (u, v)", arts["uv"], [(0, -1), (0, 1)])
    sols = {(s, 0, 1) for u, v in out.solutions for s in (1, -1)
            if v**6 + 5 * u**6 == 1}
    arts["solutions"] = sorted(sols)
    _expect(fails, "family solutions", arts["solutions"],
            [(-1, 0, 1), (1, 0, 1)])
    return fails, [SELMER_D1D2, CHABAUTY], arts


def _stage_sextic(cfg):
    fails = []
    arts = {"splits": {}, "survivors": {}, "witnesses": {}, "scans": {}}
    for i in descent.SEXTIC_INDICES:
        # sextic_split proves the resultant support lies in {2, 3, 5}
        s = descent.sextic_split(i)
        arts["splits"][i] = {
            "res_support": list(s.res_support),
            "primes_above_5": s.primes_above_5,
            "irreducibility_primes": [list(P)
                                      for P in s.irreducibility_primes]}
        _expect(fails, f"primes above 5 in the resultant for i={i}",
                s.primes_above_5, 1)
        survivors = descent.unit_sieve(i)
        arts["survivors"][i] = [list(e) for e in survivors]
        _expect(fails, f"unit classes left by the sieve for i={i}",
                len(survivors), 0 if i in descent.SIEVE_EMPTY else 1)
        if i in descent.SIEVE_EMPTY or len(survivors) != 1:
            continue
        u, v = descent.SIEVE_WITNESSES[i]
        eta = descent.class_unit(descent.FIELD_REP[i], survivors[0])
        # H eta^4 = (H / eta) eta^5 is a fifth power iff H / eta is
        val = s.H.evaluate(u, v) * eta**4
        root = algebra.nf_fifth_root(val)
        ok = root is not None and root**5 == val
        arts["witnesses"][i] = {"uv": [u, v], "fifth_root": ok}
        if not ok:
            fails.append(f"witness H_{i}({u}, {v}) is not a fifth power "
                         "times the surviving unit")
    for i in descent.SEXTIC_INDICES:
        sc = frey.congruence_scan(i)
        arts["scans"][i] = {"allHypothesesHold": sc.all_hypotheses_hold}
        if not sc.all_hypotheses_hold:
            fails.append(f"irreducibility hypotheses fail somewhere mod 72 "
                         f"for i={i}")
    catalan = _solutions(5, [descent.SIEVE_WITNESSES[5]])
    arts["catalan"] = sorted(catalan)
    _expect(fails, "Catalan witness solutions", arts["catalan"],
            [(-3, -2, 1), (3, -2, 1)])
    # verify_unit_data proves that the generators span the units modulo
    # fifth powers.  Reading H(u, v) = unit * w^5 off the fifth-power ideal
    # (H(u, v)) needs 5 to be prime to the class number of K, which nothing
    # checks.
    return fails, [CLASS_NUMBER], arts


def _curve_order(group):
    """Key of a ((W, type), indices) group: conductor, label, + before -."""
    (W, sign), _ = group
    n = len(W) - len(W.lstrip("0123456789"))
    return int(W[:n]), W[n:], sign != "+"


def _solution_label(sols):
    """'+-(x, y, z)' for a pair {t, -t}, '(+-x, y, z)' for a pair that
    differs in the sign of x only, '-' for none."""
    if not sols:
        return "-"
    x, y, z = t = max(sols)
    if sols == {t, (-x, -y, -z)}:
        return f"+-{t}"
    if sols == {t, (-x, y, z)}:
        return f"(+-{x}, {y}, {z})"
    return ", ".join(map(str, sorted(sols)))


def _stage_solutions(cfg, genus2, gauss, sqrt5):
    fails = []
    arts = {}
    table1 = _PACKAGE / "data/expected/expected_table1.json"
    expected = _read_data("summary-table fixture unreadable",
                          lambda: json.loads(table1.read_text()))
    # each family's solutions with the indices it covers, read through
    # _jsonable so that fresh and cached reports agree; the Catalan pair
    # comes from the witness of H_5's surviving class, which `sextic` checks
    families = [(indices, {tuple(t) for t in _jsonable(
                    report.artifacts.get("solutions", []))})
                for indices, report in (
                    (descent.RATIONAL_SPLIT_INDICES, genus2),
                    (descent.GAUSS_INDICES, gauss), (SQRT5_INDICES, sqrt5))]
    families.append(((5,), _solutions(5, [descent.SIEVE_WITNESSES[5]])))
    sols = set().union(*(found for _, found in families))
    for x, y, z in sorted(sols):
        if x * x + y**3 != z**25 or math.gcd(x, y, z) != 1:
            fails.append(f"claimed solution {(x, y, z)} is not a primitive "
                         "solution of x^2 + y^3 = z^25")
    arts["solutions"] = sorted(sols)
    _expect(fails, "solution column",
            sorted(str(s).replace(" ", "") for s in sols),
            sorted(s.replace(" ", "") for s in expected["solutions"]))
    condition = {}
    for i in RESIDUAL_INDICES:
        rep = ("(+-1, 0)" if descent.SIEVE_WITNESSES[i][1] == 0
               else "(0, +-1)")
        condition[i] = f"H_{i}(u, v) = w^5 => (u, v) = {rep}"
    arts["conditions"] = list(condition.values())
    _expect(fails, "condition column", arts["conditions"],
            expected["conditions"])
    # one row per curve W and type, the reducible family first
    groups = {}
    for row in frey.ito_w_rows():
        groups.setdefault((row["W"], row["type"]), set()).add(row["i"])
    rows = [("reducible", set(descent.RATIONAL_SPLIT_INDICES))]
    rows += [(W + sign, indices) for (W, sign), indices
             in sorted(groups.items(), key=_curve_order)]
    arts["table"] = []
    for curve, indices in rows:
        found = set().union(*(s for family, s in families
                              if set(family) <= indices))
        arts["table"].append({
            "curve": curve, "solutions": _solution_label(found),
            "condition": next((c for i, c in condition.items()
                               if i in indices), "-")})
    _expect(fails, "summary table", arts["table"], expected["rows"])
    # the assembled table inherits every imported fact used upstream,
    # including the sextic stage's, whose residual equations it lists
    tags = {CLASS_NUMBER}.union(
        *(r.assumptions for r in (genus2, gauss, sqrt5)))
    return fails, sorted(tags, key=TAGS.index), arts


# name -> stage, in the order the pipeline runs them
STAGES = {
    "syzygy": _stage_syzygy,
    "table4": _stage_table4,
    "table5": _stage_table5,
    "genus2": _stage_genus2,
    "gauss": _stage_gauss,
    "sqrt5": _stage_sqrt5,
    "sextic": _stage_sextic,
    "solutions": _stage_solutions,
}
STAGE_ORDER = tuple(STAGES)
# the stages whose finished reports a stage receives, as keyword arguments;
# each comes before its consumer in STAGE_ORDER
CONSUMES = {"solutions": ("genus2", "gauss", "sqrt5")}

_PACKAGE = pathlib.Path(__file__).parent


def _digest_files(files):
    """sha256 over (name, file) pairs, names and contents."""
    h = hashlib.sha256()
    for name, path in files:
        h.update(name.encode() + b"\0" + hashlib.sha256(
            path.read_bytes()).digest())
    return h.hexdigest()


def _data_digest():
    """Digest of every bundled data file and of the unit files that
    descent.verify_unit_data reads, through GFE_DATA_DIR where it is set."""
    data = _PACKAGE / "data"
    files = [(p.relative_to(data).as_posix(), p)
             for p in sorted(data.rglob("*")) if p.is_file()]
    files += [(f"unit data K{rep}", descent.unit_data_file(rep))
              for rep in sorted(set(descent.FIELD_REP.values()))]
    return _digest_files(files)


def _stage_digest(name, options, data):
    """A report's `inputs`: stage name, options and data digest.  The code
    is left out, so reports compare across code changes."""
    payload = {"stage": name, "options": options, "data": data}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return pathlib.Path(base) / "gfe25"


def run_pipeline(stages, cfg):
    """Run the named stages and the stages they consume, in STAGE_ORDER;
    returns the report list.

    Completed stage reports are cached under their `inputs` digest and the
    digest of the package source, and come back from the cache with
    seconds 0.0.  So re-runs skip finished work unless --no-cache is given,
    and never reuse a report computed from other code, data or options.
    """
    wanted = set(stages)
    for name in reversed(STAGE_ORDER):
        if name in wanted:
            wanted.update(CONSUMES.get(name, ()))
    options = {"height": cfg.get("height")}
    data = _data_digest()
    code = _digest_files((p.name, p) for p in sorted(_PACKAGE.glob("*.py")))
    reports = {}
    for name in STAGE_ORDER:
        if name not in wanted:
            continue
        digest = _stage_digest(name, options, data)
        cache_file = _cache_dir() / f"{name}-{digest}-{code[:16]}.json"
        if cfg.get("cache", True) and cache_file.is_file():
            try:
                reports[name] = DescentReport(**{
                    **json.loads(cache_file.read_text()), "seconds": 0.0})
                continue
            except (json.JSONDecodeError, TypeError):
                pass  # unreadable cache entry; recompute
        t0 = time.perf_counter()
        try:
            fails, assumptions, artifacts = STAGES[name](
                cfg, **{n: reports[n] for n in CONSUMES.get(name, ())})
        except descent.DerivationFailed as e:
            fails, assumptions, artifacts = [str(e)], [], {}
        verdict = ("mismatch" if fails
                   else "conditional-pass" if assumptions else "pass")
        report = reports[name] = DescentReport(
            stage=name, inputs=digest, verdict=verdict, details=fails,
            assumptions=assumptions if not fails else [], artifacts=artifacts,
            seconds=time.perf_counter() - t0)
        if cfg.get("cache", True):
            try:
                _cache_dir().mkdir(parents=True, exist_ok=True)
                cache_file.write_text(json.dumps(report.as_dict()))
            except OSError:
                pass  # cache is best-effort
    return list(reports.values())


# ---------------------------------------------------------------------------
# curve specs for the direct subcommands

def _named_curves():
    return {
        "D1t": HyperellipticModel(D1T, "D1t"),
        "D2t": HyperellipticModel(D2T, "D2t"),
        "M4": HyperellipticModel(descent.gauss_family(4).F, "M4"),
        "D0": descent.sqrt5_family(0).D,
        "D-1": descent.sqrt5_family(-1).D,
        "D-2": descent.sqrt5_family(-2).D,
    }


def parse_curve(spec):
    """A named curve, or y^2 = F(x) from F's coefficients (CURVE_HELP)."""
    named = _named_curves()
    if spec in named:
        return named[spec]
    try:
        return HyperellipticModel(_number_list(spec), spec)
    except (argparse.ArgumentTypeError, ValueError) as e:
        raise DataProblem(f"cannot interpret curve {spec!r} ({e}); --curve "
                          f"takes a {CURVE_HELP}") from e


# ---------------------------------------------------------------------------
# subcommands

def _print(doc, as_json, payload):
    if as_json:
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        print(doc)


def cmd_sieve(args):
    try:
        r = padic.sieve_residue_classes(args.i, args.p, max_depth=args.depth)
    except padic.DepthExhausted as e:
        raise DataProblem(f"{e}; raise --depth") from e
    classes = [str(c) for c in r.classes]
    _print(f"i={args.i}, p={args.p}: non-excluded classes "
           f"{classes or 'none'}", args.json,
           {"i": args.i, "p": args.p, "classes": classes,
            "excluded": r.excluded, "accepted": r.accepted,
            "undecided": r.undecided})
    return 0


# the indices each `derive --family` accepts; 66 takes the unit power j
FAMILY_INDICES = {"1110": descent.RATIONAL_SPLIT_INDICES,
                  "48": descent.GAUSS_INDICES, "66": (-2, -1, 0, 1, 2),
                  "12": descent.SEXTIC_INDICES}


def cmd_derive(args):
    fam = args.family
    indices = FAMILY_INDICES[fam]
    if args.i is not None:
        if args.i not in indices:
            raise DataProblem(f"--i {args.i} is not in family {fam}; choose "
                              f"from {', '.join(map(str, indices))}")
        indices = [args.i]
    out = {}
    if fam == "1110":
        for i in indices:
            s = descent.rational_split(i)
            alphas = descent.alpha_candidates(i, s)
            out[i] = {"A": s.A, "B": s.B, "C": s.C, "scale": s.scale,
                      "alpha": sorted(alphas),
                      "gamma": sorted({m.coeffs[0] for a in alphas
                                       for m in descent.genus2_models(s, a)})}
    elif fam == "48":
        for i in indices:
            d = descent.gauss_family(i)
            out[i] = {"F": list(d.F), "S": list(d.S.coeffs),
                      "resultant": d.resultant}
    elif fam == "66":
        for j in indices:
            d = descent.sqrt5_family(j)
            out[j] = {"F": list(d.F.coeffs), "genus": d.D.genus}
    elif fam == "12":
        for i in indices:
            s = descent.sextic_split(i)
            out[i] = {"min_poly": [str(c) for c in s.field.min_poly],
                      "q": [[str(x) for x in c.coords] for c in s.q.coeffs],
                      "res_support": list(s.res_support),
                      "primes_above_5": s.primes_above_5}
    lines = "\n".join(f"{k}: {json.dumps(_jsonable(v))}"
                      for k, v in out.items())
    _print(lines, args.json, out)
    return 0


def cmd_unitsieve(args):
    primes = args.primes or descent.DEFAULT_SIEVE_PRIMES
    t0 = time.perf_counter()
    try:
        survivors = descent.unit_sieve(args.i, primes=primes)
    except descent.IndexRisk as e:
        raise DataProblem(f"{e}; choose other --primes") from e
    report = DescentReport(
        stage=f"unitsieve-{args.i}",
        inputs=_stage_digest(f"unitsieve-{args.i}",
                             {"primes": list(primes)}, _data_digest()),
        verdict="conditional-pass", assumptions=[CLASS_NUMBER],
        artifacts={"i": args.i, "primes": list(primes),
                   "survivors": [list(e) for e in survivors]},
        seconds=time.perf_counter() - t0)
    print(emit_report([report], "json" if args.json else "markdown"), end="")
    return exit_code([report])


def cmd_search(args):
    model = parse_curve(args.curve)
    pts = rational_points(model, args.height)
    _print("\n".join(str(p) for p in pts) or "(no points)", args.json,
           {"curve": args.curve, "height": args.height,
            "points": [str(p) for p in pts]})
    return 0


def cmd_mumford(args):
    model = parse_curve(args.curve)
    try:
        ok = mumford_check(model, args.a, args.b)
    except ValueError as e:
        raise DataProblem(f"bad divisor (a, b): {e}") from e
    _print(f"(a, b) {'lies on' if ok else 'is NOT on'} Jac({args.curve})",
           args.json, {"curve": args.curve, "a": args.a, "b": args.b,
                       "on_jacobian": ok})
    return 0 if ok else 1


def cmd_frey(args):
    if args.scan == "all":
        indices = list(descent.SEXTIC_INDICES)
    else:
        indices = [int(args.scan)]
    by_i = {r["i"]: r for r in frey.ito_w_rows()}
    rows = []
    for i in indices:
        sc = frey.congruence_scan(i)
        rows.append({"i": i, "mod8_classes": len(sc.mod8_pairs),
                     "mod9_classes": len(sc.mod9_pairs),
                     "allHypothesesHold": sc.all_hypotheses_hold,
                     "W": by_i[i]["W"], "type": by_i[i]["type"]})
    lines = "\n".join(json.dumps(_jsonable(r)) for r in rows)
    _print(lines, args.json, rows)
    return 0 if all(r["allHypothesesHold"] for r in rows) else 1


def cmd_run(args):
    # argparse has checked --stage against STAGE_ORDER
    stages = {args.stage} if args.stage else set(STAGE_ORDER)
    cfg = {"height": args.height, "cache": not args.no_cache}
    reports = run_pipeline(stages, cfg)
    fmt = "markdown" if args.md else "json"
    print(emit_report(reports, fmt), end="")
    return exit_code(reports)


# ---------------------------------------------------------------------------

def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


#: the height of the highest point the stages expect, x = -4 on
#: y^2 = x^5 + 32000; a lower run --height could not find it
KNOWN_POINTS_HEIGHT = 4


def _run_height(text):
    height = _positive_int(text)
    if height < KNOWN_POINTS_HEIGHT:
        raise argparse.ArgumentTypeError(
            f"{height} is below {KNOWN_POINTS_HEIGHT}, the height of the "
            "known points (-4, +-176) on y^2 = x^5 + 32000")
    return height


MAX_SIEVE_DEPTH = 100  # padic._sieve_chart recurses, two frames a level


def _sieve_depth(text):
    if _positive_int(text) > MAX_SIEVE_DEPTH:
        raise argparse.ArgumentTypeError(f"{text} is above {MAX_SIEVE_DEPTH}")
    return int(text)


CURVE_HELP = ("named curve (D1t, D2t, M4, D0, D-1, D-2) or F's ascending "
              "integer coefficients in y^2 = F(x), e.g. 32000,0,0,0,0,1 for "
              "x^5 + 32000 (--curve=-1,... when the first is negative)")


def _number_list(text, kind=int):
    """The comma-separated entries of text, each read by kind."""
    try:
        return tuple(kind(t) for t in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of "
            f"{'integers' if kind is int else 'rationals'}: {text!r}") from None


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="gfe",
        description="Verification pipeline for x^2 + y^3 = z^25: reproduces "
                    "the classification tables and the per-family descents.")
    ap.add_argument("--data", help="directory with external data files "
                                   "(overrides GFE_DATA_DIR)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="residue classes of (u, v) mod p^k "
                                     "compatible with a fifth power")
    p.add_argument("--i", type=int, required=True, choices=ALL_INDICES)
    p.add_argument("--p", type=int, required=True,
                   choices=sorted(padic.DEFAULT_DEPTH))
    p.add_argument("--depth", type=_sieve_depth, default=None,
                   help=f"refinement depth, at most {MAX_SIEVE_DEPTH}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("derive", help="derived descent data for one "
                                      "factorization family")
    p.add_argument("--family", required=True,
                   choices=("1110", "48", "66", "12"),
                   help="degrees of the factors of h_i")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("unitsieve", help="surviving unit classes for "
                                         "H_i(u, v) = eta * w^5")
    p.add_argument("--i", type=int, required=True,
                   choices=descent.SEXTIC_INDICES)
    p.add_argument("--primes", type=_number_list,
                   help="comma-separated primes p = 1 mod 5 the sieve "
                        "may walk (default: all of them below 700)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_unitsieve)

    p = sub.add_parser("search", help="rational points of bounded height")
    p.add_argument("--curve", required=True, help=CURVE_HELP)
    p.add_argument("--height", type=_positive_int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("mumford", help="check a Mumford divisor (a, b) "
                                       "against a curve")
    p.add_argument("--curve", required=True, help=CURVE_HELP)
    p.add_argument("--a", required=True, type=lambda t: _number_list(
        t, Fraction), help="monic a(x), ascending comma-separated rationals")
    p.add_argument("--b", required=True, type=lambda t: _number_list(
        t, Fraction), help="b(x), ascending comma-separated rationals")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mumford)

    p = sub.add_parser("frey", help="congruence scans for the Frey-curve "
                                    "irreducibility hypotheses")
    p.add_argument("--scan", default="all",
                   choices=["all", *map(str, descent.SEXTIC_INDICES)],
                   help="'all' or a single index")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frey)

    p = sub.add_parser("run", help="run verification stages and emit reports")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--all", action="store_true")
    g.add_argument("--stage", choices=STAGE_ORDER)
    p.add_argument("--height", type=_run_height, default=None,
                   help="override the per-stage search height bound "
                        f"(at least {KNOWN_POINTS_HEIGHT})")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write cached stage reports")
    p.add_argument("--md", action="store_true")
    p.set_defaults(func=cmd_run)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.data:
        os.environ["GFE_DATA_DIR"] = args.data
    try:
        return args.func(args)
    except (DataProblem, descent.BadUnitData, FileNotFoundError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except descent.DerivationFailed as e:
        print(f"mismatch: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
