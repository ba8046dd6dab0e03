"""End-to-end acceptance checks.

One test per criterion; each registers a single PASS/FAIL line that the
terminal-summary hook in conftest prints after the run, so a full session
ends with a nine-line scorecard. The heavy verification work runs once
through the stage pipeline and is shared by the first eight tests.
"""

import contextlib
import json
import os
import random
from fractions import Fraction

import pytest

import conftest
from gfe25 import algebra, cli, padic, poly
from gfe25.bforms import BinaryForm, evaluate_triple, transform
from gfe25.search import HyperellipticModel, rational_points


@contextlib.contextmanager
def scorecard(n, label):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_SCORECARD.append(f"acceptance {n}/9 ({label}): FAIL")
        raise
    conftest.ACCEPTANCE_SCORECARD.append(f"acceptance {n}/9 ({label}): PASS")


@pytest.fixture(scope="module")
def pipeline():
    cfg = {"height": None, "cache": False}
    reports = cli.run_pipeline(set(cli.STAGE_ORDER), cfg)
    return {r.stage: r for r in reports}


def _clean(report, budget=None):
    assert report.verdict != "mismatch", report.details
    if budget is not None:
        assert report.seconds < budget, (report.stage, report.seconds)
    return report


def test_syzygy_identity_suite(pipeline):
    with scorecard(1, "syzygy suite"):
        r = _clean(pipeline["syzygy"], budget=30)
        assert r.verdict == "pass"
        assert r.artifacts["identities_checked"] == 27
        assert r.artifacts["degree"] == 60


def test_factorization_table(pipeline):
    with scorecard(2, "factorization table"):
        r = _clean(pipeline["table4"], budget=300)
        assert r.verdict == "pass"
        assert r.artifacts["rows_checked"] == 27
        golden = {row["i"]: row["type"] for row in r.artifacts["table"]
                  if row["i"] in (7, 11, 19)}
        assert golden == {7: [12], 11: [12], 19: [12]}


def test_residue_class_table(pipeline):
    with scorecard(3, "residue-class table"):
        r = _clean(pipeline["table5"], budget=120)
        assert r.verdict == "pass"
        assert r.artifacts["rows_checked"] == 48
        for i in (7, 11, 19):
            assert padic.sieve_residue_classes(i, 2).classes == []


def test_rational_split_descent(pipeline):
    with scorecard(4, "rational-split descent"):
        r = _clean(pipeline["genus2"])
        assert "paper-chabauty-completeness" in r.assumptions
        assert r.artifacts["alpha"] == {1: [12], 20: [12], 25: [1]}
        assert r.artifacts["gamma"][1] == [2**8 * 5**3, 2**6 * 3**4 * 5**3]
        assert r.artifacts["gamma"][20] == sorted((2**8 * 3**4 * 5**3,
                                                   2**6 * 5**3))
        assert r.artifacts["gamma"][25] == sorted((2**8 * 5**3,
                                                   2**8 * 3**6 * 5**3))
        assert sorted(r.artifacts["solutions"]) == [(-1, -1, 0), (1, -1, 0)]


def test_gauss_descent(pipeline):
    with scorecard(5, "Gaussian descent"):
        r = _clean(pipeline["gauss"])
        assert "paper-chabauty-completeness" in r.assumptions
        assert all(r.artifacts["relation_web"].values())
        assert r.artifacts["resultant"] == -144
        assert {str(p) for p in r.artifacts["search_M4"]} == \
            {"(0, 0)", "(1, 12)", "(1, -12)"}
        tokens = set(r.artifacts["contradictions"].values())
        assert tokens == {"+-4 = 6u^2", "+-4 = -2v^2"}
        assert sorted(r.artifacts["solutions"]) == [(0, -1, -1), (0, 1, 1)]


def test_sqrt5_descent(pipeline):
    with scorecard(6, "real-quadratic descent"):
        r = _clean(pipeline["sqrt5"])
        assert {"paper-selmer-emptiness-D1D2",
                "paper-chabauty-completeness"} <= set(r.assumptions)
        assert r.artifacts["resultants"] == {
            "sextic_factors": -(3**18) * 5**6,
            "quadratic_forms": -(3**6) * 5**2}
        assert len(r.artifacts["mumford_checked"]) == 4
        assert {str(p) for p in r.artifacts["search_D1t"]} == {"inf+", "inf-"}
        assert {str(p) for p in r.artifacts["search_D2t"]} == {"inf+", "inf-"}
        assert sorted(r.artifacts["uv"]) == [(0, -1), (0, 1)]
        assert sorted(r.artifacts["solutions"]) == [(-1, 0, 1), (1, 0, 1)]


def test_sextic_descent(pipeline):
    with scorecard(7, "sextic splitting and unit sieve"):
        r = _clean(pipeline["sextic"], budget=900)
        assert r.assumptions == ["class-number-prime-to-5"]
        assert all(s["irreducibility_primes"]
                   for s in r.artifacts["splits"].values())
        surv = r.artifacts["survivors"]
        assert all(surv[i] == [] for i in (8, 9, 15, 21))
        assert all(len(surv[i]) == 1
                   for i in (5, 6, 13, 14, 16, 22, 23, 24))
        assert all(w["fifth_root"] for w in r.artifacts["witnesses"].values())
        assert all(s["allHypothesesHold"]
                   for s in r.artifacts["scans"].values())
        assert sorted(r.artifacts["catalan"]) == [(-3, -2, 1), (3, -2, 1)]


def test_end_to_end_summary(pipeline):
    with scorecard(8, "end-to-end summary table"):
        reports = [pipeline[name] for name in cli.STAGE_ORDER]
        assert cli.exit_code(reports) == 10  # conditional only, no mismatch
        r = _clean(pipeline["solutions"])
        want = {(1, -1, 0), (-1, -1, 0), (1, 0, 1), (-1, 0, 1),
                (0, 1, 1), (0, -1, -1), (3, -2, 1), (-3, -2, 1)}
        assert set(r.artifacts["solutions"]) == want
        assert r.artifacts["conditions"] == [
            "H_22(u, v) = w^5 => (u, v) = (+-1, 0)",
            "H_6(u, v) = w^5 => (u, v) = (0, +-1)",
            "H_24(u, v) = w^5 => (u, v) = (+-1, 0)",
            "H_5(u, v) = w^5 => (u, v) = (0, +-1)",
            "H_16(u, v) = w^5 => (u, v) = (0, +-1)",
        ]
        doc = cli.emit_report(reports, "json")
        assert json.loads(doc)["verdict"] == "conditional-pass"


def test_randomized_property_suites():
    seed = int(os.environ.get("GFE_TEST_SEED",
                              random.SystemRandom().randrange(2**32)))
    rng = random.Random(seed)
    with scorecard(9, f"randomized properties, seed={seed}"):
        _prop_factor_roundtrip(rng)
        _prop_transform_functorial(rng)
        _prop_fifth_root_roundtrip(rng)
        _prop_points_on_curve(rng)
        _prop_sieve_vs_brute_force(rng)


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _prop_factor_roundtrip(rng):
    # factor then re-expand, over F_p, over Q, and over Q(i)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11, 13])
        deg = rng.randrange(2, 6)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
        lead, facs = poly.factor_mod(coeffs, p)
        prod = [lead]
        for f, e in facs:
            for _ in range(e):
                prod = _poly_mul_int(prod, f)
        assert [c % p for c in prod] == coeffs
    for _ in range(100):
        deg = rng.randrange(2, 6)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg)] + \
            [rng.randrange(1, 20)]
        content, facs = algebra.factor_q(coeffs)
        prod = [Fraction(content)]
        for f, e in facs:
            for _ in range(e):
                prod = _poly_mul_int(prod, f)
        assert [Fraction(c) for c in prod] == [Fraction(c) for c in coeffs]
    G = algebra.auxiliary_field("gauss")
    for _ in range(100):
        coeffs = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 4))] \
            + [1]
        lead, facs = algebra.factor_nf(coeffs, G)
        prod = [lead]
        for f, e in facs:
            for _ in range(e):
                prod = _poly_mul_int(prod, f)
        assert [G.from_int(0) + c for c in prod] == \
            [G.from_int(c) for c in coeffs]


def _prop_transform_functorial(rng):
    # substituting by M1 then M2 equals substituting by the product M1 M2
    for _ in range(100):
        d = rng.randrange(2, 5)
        F = BinaryForm(d, tuple(rng.randrange(-9, 10) for _ in range(d + 1)))
        a, b, c, e, f, g, h, k = (rng.randrange(-3, 4) for _ in range(8))
        M1, M2 = ((a, b), (c, e)), ((f, g), (h, k))
        if a * e - b * c == 0 or f * k - g * h == 0:
            continue
        prod = ((a * f + b * h, a * g + b * k),
                (c * f + e * h, c * g + e * k))
        assert transform(transform(F, M1), M2) == transform(F, prod)


def _prop_fifth_root_roundtrip(rng):
    fields = [algebra.auxiliary_field("gauss"), algebra.coefficient_field(22)]
    for _ in range(100):
        K = rng.choice(fields)
        e = K.element([rng.randrange(-2, 3) for _ in range(K.degree)])
        x = e**5
        root = algebra.nf_fifth_root(x)
        assert root is not None and root**5 == x
        # non-fifth-powers must be rejected
        assert algebra.nf_fifth_root(K.from_int(rng.choice([2, 3, 7]))) is None


def _prop_points_on_curve(rng):
    checked = 0
    while checked < 100:
        coeffs = tuple(rng.randrange(-30, 31) for _ in range(5)) + (1,)
        try:
            model = HyperellipticModel(coeffs)
        except ValueError:
            continue
        for pt in rational_points(model, 8):
            if hasattr(pt, "x"):
                assert pt.y * pt.y == model.F(pt.x)
        checked += 1


def _prop_sieve_vs_brute_force(rng):
    # integer pairs passing the naive p-adic test at depth <= 3 must lie in a
    # class the sieve reports as non-excluded
    for i, p in ((1, 2), (5, 3), (6, 2), (22, 3), (25, 2)):
        classes = padic.sieve_residue_classes(i, p).classes
        n = p**padic.DEFAULT_DEPTH[p]
        for _ in range(120):
            u = rng.randrange(-n, n)
            v = rng.randrange(-n, n)
            if u % p == 0 and v % p == 0:
                continue
            f, g, h = evaluate_triple(i, u, v)
            if f % p == 0 and g % p == 0 and h % p == 0:
                continue
            if not conftest.is_fifth_power_zp(-h, p):
                continue
            assert _in_some_class(u, v, p, n, classes), (i, p, u, v)


def _in_some_class(u, v, p, n, classes):
    for cls in classes:
        m = cls.modulus
        if cls.unit_slot == "second":
            if v % p != 0 and (u * pow(v, -1, n)) % m == cls.residue % m:
                return True
        else:
            if u % p != 0 and (v * pow(u, -1, n)) % m == cls.residue % m:
                return True
    return False
