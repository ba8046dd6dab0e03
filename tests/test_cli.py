"""Tests for the `gfe` command line: argument checks, examples and the cache."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace

import pytest

import gfe25
from gfe25 import bforms, cli, descent, frey
from gfe25.search import HyperellipticModel


def _gfe(capsys, *argv):
    """(exit code, stdout, stderr) of `gfe argv`; argparse errors exit via
    SystemExit, any other exception fails the test with its traceback."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ("mumford", "--curve", "1,0,0,0,0,1", "--a", "0", "--b", "1"),
    ("mumford", "--curve", "1,0,0,0,0,1", "--a", "1,1,1,1", "--b", "1"),
    ("mumford", "--curve", "1,0,0,0,0,1", "--a", "2,3", "--b", "1"),
    ("search", "--curve", "1,0,0,0,0,1", "--height", "0"),
    ("unitsieve", "--i", "3"),
    ("unitsieve", "--i", "8", "--primes", "11,x"),
    ("unitsieve", "--i", "8", "--primes", "5"),
    ("sieve", "--i", "30", "--p", "2"),
    ("sieve", "--i", "1", "--p", "7"),
    ("sieve", "--i", "1", "--p", "2", "--depth", "2"),
    ("sieve", "--i", "1", "--p", "2", "--depth", "101"),
    ("frey", "--scan", "3"),
    ("derive", "--family", "48", "--i", "5"),
    ("run", "--stage", "table5", "--depth", "0"),
    ("unitsieve", "--i", "16", "--primes", "21"),
    ("run", "--stage", "sextic", "--primes", "5", "--no-cache"),
    ("run", "--stage", "sextic", "--primes", "21"),
    ("search", "--curve", "1,3/2,0,0,0,1", "--height", "5"),
    ("search", "--curve", "1/2,0,0,0,0,1", "--height", "5"),
    ("search", "--curve", "x^5+32000", "--height", "5"),
    ("search", "--curve", "1,,0,0,0,1", "--height", "5"),
    ("search", "--curve", "0,0,1,1", "--height", "5"),
    ("mumford", "--curve", "1.5,0,0,0,0,1", "--a", "1", "--b", "1"),
    ("mumford", "--curve", "D1t", "--a", "1,x", "--b", "1"),
    ("mumford", "--curve", "D1t", "--a", "1", "--b", "1/0"),
    ("run", "--stage", "genus2", "--height", "3", "--no-cache"),
    ("unitsieve", "--i", "16", "--depth", "3"),
    ("unitsieve", "--i", "16", "--no-mod25"),
    ("unitsieve", "--i", "16", "--primes", "13"),
    ("unitsieve", "--i", "16", "--primes", "11,19"),
    ("unitsieve", "--i", "13", "--primes", "915690241"),
])
def test_bad_arguments_exit_2(capsys, argv):
    code, out, err = _gfe(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert out == ""


@pytest.mark.parametrize("argv, want", [
    (["run", "--all", "--no-cache"], 10),
    (["search", "--curve", "D1t", "--height", "5"], 0),
    (["search", "--curve", "32000,0,0,0,0,1", "--height", "5"], 0),
], ids=["run-all", "search-D1t", "search-list"])
def test_run_path_loads_no_sympy(tmp_path, argv, want):
    # the verdict and the search need numpy alone: sympy and mpmath are the
    # tests' references, and importing sympy was most of the time that
    # importing the package took
    script = ("import contextlib, io, sys\n"
              "from gfe25 import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = cli.main({argv!r})\n"
              "print(code, sorted({m.split('.')[0] for m in sys.modules}\n"
              "                   & {'sympy', 'mpmath'}))\n")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(pathlib.Path(gfe25.__file__).parent.parent))
    env.pop("GFE_DATA_DIR", None)
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [str(want), "[]"]


def test_readme_mumford_example(capsys):
    code, out, _err = _gfe(capsys, "mumford", "--curve", "D1t",
                           "--a", "1,3,4,2,1", "--b=-30,-90,-90,-60")
    assert code == 0
    assert "lies on" in out


def test_readme_search_example(capsys):
    code, out, _err = _gfe(capsys, "search", "--curve", "32000,0,0,0,0,1",
                           "--height", "1000")
    assert code == 0
    assert out.split("\n") == ["inf", "(-4, -176)", "(-4, 176)", ""]


@pytest.mark.parametrize("name", sorted(cli._named_curves()))
def test_named_curve_as_a_coefficient_list(name):
    # a named curve and its ascending coefficients give the same model
    model = cli.parse_curve(name)
    spec = ",".join(map(str, model.coeffs))
    assert cli.parse_curve(spec) == HyperellipticModel(model.coeffs, spec)


@pytest.mark.parametrize("i", [1, 20])
def test_sieve_runs_at_the_depth_cap(capsys, i):
    # the deepest --depth that gfe sieve accepts runs without exhausting
    # the stack (depth 101 exits 2: test_bad_arguments_exit_2)
    code, out, err = _gfe(capsys, "sieve", "--i", str(i), "--p", "2",
                          "--depth", str(cli.MAX_SIEVE_DEPTH))
    assert (code, err) == (0, "")
    assert out.startswith(f"i={i}, p=2: non-excluded classes")


def _without_seconds(doc):
    for report in doc["reports"]:
        report.pop("seconds")
    return doc


def test_cached_table5_matches_fresh(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    code1, out1, _ = _gfe(capsys, "run", "--stage", "table5")
    assert any(tmp_path.rglob("table5-*.json"))
    code2, out2, _ = _gfe(capsys, "run", "--stage", "table5")
    assert code1 == code2 == 0
    assert _without_seconds(json.loads(out1)) == _without_seconds(json.loads(out2))


def test_cached_table4_matches_fresh(capsys, tmp_path, monkeypatch):
    # the certificates survive the cache's JSON round trip unchanged
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    code1, out1, _ = _gfe(capsys, "run", "--stage", "table4")
    code2, out2, _ = _gfe(capsys, "run", "--stage", "table4")
    assert code1 == code2 == 0
    fresh = _without_seconds(json.loads(out1))
    assert fresh == _without_seconds(json.loads(out2))
    artifacts = fresh["reports"][0]["artifacts"]
    golden = [row["i"] for row in artifacts["table"] if row["field"] == "golden"]
    assert [row["i"] for row in artifacts["certificates"]] == sorted(golden)


# the least inert prime below algebra.INERT_PRIME_BOUND that certifies each
# [12] row over Q(sqrt5); the [6, 6] rows take the norm at shift 1
TABLE4_INERT_PRIMES = {5: 7, 6: 37, 8: 13, 9: 7, 13: 7, 14: 13, 15: 23,
                       16: 13, 21: 7, 22: 13, 23: 37, 24: 7, 7: 13, 11: 17,
                       19: 7}


def test_table4_rows_and_certificates_are_pinned():
    fails, _, artifacts = cli._stage_table4(None)
    assert fails == []
    types = {**{i: ("Q", [1, 1, 10]) for i in (1, 20, 25)},
             **{i: ("Q", [4, 8]) for i in (3, 4, 12, 17, 18, 27)},
             **{i: ("golden", [6, 6]) for i in (2, 10, 26)},
             **{i: ("golden", [12]) for i in TABLE4_INERT_PRIMES}}
    assert artifacts["rows_checked"] == 27 and sorted(types) == list(range(1, 28))
    assert artifacts["table"] == [
        {"i": i, "field": field, "type": want}
        for i, (field, want) in sorted(types.items(),
                                       key=lambda it: (it[1][0], it[0]))]
    shift = {"norm_shift": 1, "norm_factor_degrees": [12, 12]}
    assert artifacts["certificates"] == [
        {"i": i, "factors": [{"degree": 12, "multiplicity": 1,
                              "certificate": {"inert_prime": TABLE4_INERT_PRIMES[i]}
                              if i in TABLE4_INERT_PRIMES else shift}]}
        for i in sorted((2, 10, 26) + tuple(TABLE4_INERT_PRIMES))]


# sha256 of the sorted-key JSON document of the seven stages other than
# sextic, with `seconds` removed: the digest that the benchmark's
# verdict_rest workload prints for the same document
NON_SEXTIC_DIGEST = \
    "23558df0b8d970d3e2a07ec47dfe9d1dfb9131e3601c85edab498b2bf1c2e6c8"


def test_non_sextic_document_is_pinned_by_its_digest():
    stages = set(cli.STAGE_ORDER) - {"sextic"}
    assert len(stages) == 7
    doc = json.loads(cli.emit_report(cli.run_pipeline(
        stages, {"height": None, "cache": False})))
    for report in doc["reports"]:
        del report["seconds"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == NON_SEXTIC_DIGEST


def _stub_stage(cfg):
    return [], [], {}


def test_sextic_inputs_cover_external_unit_data(tmp_path, monkeypatch):
    # the sieve is stubbed out: only the report's inputs digest matters
    monkeypatch.setitem(cli.STAGES, "sextic", _stub_stage)
    monkeypatch.delenv("GFE_DATA_DIR", raising=False)
    cfg = {"cache": False}

    def inputs():
        return cli.run_pipeline({"sextic"}, cfg)[0].inputs

    bundled = inputs()
    units = tmp_path / "units"
    units.mkdir()
    text = resources.files("gfe25").joinpath(
        "data/units/K16.json").read_text()
    (units / "K16.json").write_text(text)
    monkeypatch.setenv("GFE_DATA_DIR", str(tmp_path))
    assert inputs() == bundled
    (units / "K16.json").write_text(text + "\n")
    assert inputs() != bundled


@pytest.mark.parametrize("extra", [
    (6, ["7"], "6 coordinates"), (5, [], "6 coordinates"),
    (5, ["x"], "not a rational number")])
def test_unit_generators_need_degree_coordinates(capsys, tmp_path,
                                                 monkeypatch, extra):
    # the first generator keeps `keep` coordinates and gets `tail`: a 7th
    # coordinate used to be dropped, a missing 6th read as 0, and a
    # non-numeric one escaped as a ValueError traceback
    keep, tail, message = extra
    raw = json.loads(resources.files("gfe25").joinpath(
        "data/units/K16.json").read_text())
    raw["generators"][0] = raw["generators"][0][:keep] + tail
    (tmp_path / "units").mkdir()
    (tmp_path / "units" / "K16.json").write_text(json.dumps(raw))
    monkeypatch.setenv("GFE_DATA_DIR", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(descent.BadUnitData, match=message):
        descent.verify_unit_data(16)
    for argv in (("unitsieve", "--i", "16", "--primes", "11"),
                 ("run", "--stage", "sextic", "--no-cache")):
        code, out, err = _gfe(capsys, *argv)
        assert code == 2 and message in err and out == ""


@pytest.mark.parametrize("data", [
    b"{not json", b"[]", b'{"certPrimes": [11, 31, 41]}',
    b'{"generators": 5, "certPrimes": [11, 31, 41]}', b"\xff\x00",
    b"[" * 100_000])
def test_malformed_unit_files_exit_2(capsys, tmp_path, monkeypatch, data):
    # a file that is not JSON, a list, no "generators", a number for them,
    # bytes that are not UTF-8 and nesting deeper than the recursion limit:
    # all but the first used to escape `gfe unitsieve` as a traceback
    # (AttributeError, KeyError, TypeError, UnicodeDecodeError,
    # RecursionError) with exit 1, which means a mismatch
    (tmp_path / "units").mkdir()
    (tmp_path / "units" / "K16.json").write_bytes(data)
    monkeypatch.setenv("GFE_DATA_DIR", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(descent.BadUnitData, match="unit file of"):
        descent.verify_unit_data(16)
    for argv in (("unitsieve", "--i", "16"),
                 ("run", "--stage", "sextic", "--no-cache")):
        code, out, err = _gfe(capsys, *argv)
        assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize("cert_primes", [[2, 31, 41], [31, 41, "x"],
                                         [1, 31, 41], 31, None,
                                         [915690241, 31, 41]])
def test_unit_cert_primes_are_sieve_primes(capsys, tmp_path, monkeypatch,
                                           cert_primes):
    # certPrimes is outside input: 2 (p != 1 mod 5), a string and 1 used to
    # escape as a ValueError, TypeError or ArithmeticError traceback, exit 1,
    # and so did a number in place of the list (31) or no list (None); a
    # prime past the int64 bound of the sieve (915690241) is refused too
    raw = json.loads(resources.files("gfe25").joinpath(
        "data/units/K5.json").read_text())
    if cert_primes is None:
        del raw["certPrimes"]
    else:
        raw["certPrimes"] = cert_primes
    (tmp_path / "units").mkdir()
    (tmp_path / "units" / "K5.json").write_text(json.dumps(raw))
    monkeypatch.setenv("GFE_DATA_DIR", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.raises(descent.BadUnitData, match="certPrimes"):
        descent.verify_unit_data(5)
    for argv in (("unitsieve", "--i", "5", "--primes", "11"),
                 ("run", "--stage", "sextic", "--no-cache")):
        code, out, err = _gfe(capsys, *argv)
        assert code == 2 and "certPrimes" in err and out == ""


def test_solutions_table_follows_ito_w_rows(monkeypatch):
    rows = [r for r in frey.ito_w_rows() if r["i"] != 22]
    monkeypatch.setattr(frey, "ito_w_rows", lambda: rows)
    reports = cli.run_pipeline({"solutions"}, {"cache": False})
    solutions = reports[-1]
    assert solutions.stage == "solutions"
    assert solutions.verdict == "mismatch"
    assert any("54a1-" in d for d in solutions.details)
    assert all("54a1-" not in row["curve"]
               for row in solutions.artifacts["table"])


def test_solutions_reads_cached_upstream_reports(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    code, out, _ = _gfe(capsys, "run", "--stage", "solutions")
    assert code == 10
    fresh = _without_seconds(json.loads(out))
    stages = ["genus2", "gauss", "sqrt5", "solutions"]
    assert [r["stage"] for r in fresh["reports"]] == stages
    for name in stages:
        assert len(list(tmp_path.rglob(f"{name}-*.json"))) == 1
    code, out, _ = _gfe(capsys, "run", "--stage", "solutions")
    assert code == 10
    assert _without_seconds(json.loads(out)) == fresh
    (entry,) = tmp_path.rglob("solutions-*.json")
    entry.unlink()
    code, out, _ = _gfe(capsys, "run", "--stage", "solutions")
    assert code == 10
    assert _without_seconds(json.loads(out)) == fresh
    assert entry.is_file()


def test_disagreeing_forms_data_exits_2(capsys, tmp_path, monkeypatch):
    # the syzygy stage checks data/forms.json against the embedded table
    payload = json.loads(
        resources.files("gfe25").joinpath("data/forms.json").read_text())
    payload[0]["alphas"][0] = str(int(payload[0]["alphas"][0]) + 1)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "forms.json").write_text(json.dumps(payload))
    monkeypatch.setattr(bforms, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    code, out, err = _gfe(capsys, "run", "--stage", "syzygy", "--no-cache")
    assert code == 2
    assert "forms" in err and "error:" in err
    assert out == ""


def _fail_in(monkeypatch, target):
    """Make descent.target raise DerivationFailed; returns its message."""
    message = f"{target} failed on purpose"

    def fail(*args):
        raise descent.DerivationFailed(message)

    monkeypatch.setattr(descent, target, fail)
    return message


@pytest.mark.parametrize("stage, target", [
    ("genus2", "rational_split"), ("gauss", "gauss_family"),
    ("sqrt5", "sqrt5_family"), ("sextic", "sextic_split")])
def test_failed_derivation_is_a_mismatch_report(capsys, monkeypatch, stage,
                                                target):
    # run_pipeline turns a DerivationFailed from any stage into a report;
    # from sextic_split it used to escape `gfe run` as a traceback
    message = _fail_in(monkeypatch, target)
    code, out, err = _gfe(capsys, "run", "--stage", stage, "--no-cache")
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert doc["verdict"] == "mismatch"
    (report,) = doc["reports"]
    assert (report["stage"], report["verdict"]) == (stage, "mismatch")
    assert report["details"] == [message]
    assert report["assumptions"] == [] and report["artifacts"] == {}


def test_failed_derivation_in_a_subcommand_exits_1(capsys, monkeypatch):
    message = _fail_in(monkeypatch, "sextic_split")
    code, out, err = _gfe(capsys, "derive", "--family", "12", "--i", "16")
    assert (code, out, err) == (1, "", f"mismatch: {message}\n")
