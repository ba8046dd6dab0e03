"""Tests for the `gfe` command line: argument checks, examples and the cache."""

import json

import pytest

from gfe25 import cli


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
    ("mumford", "--curve", "x^5+1", "--a", "0", "--b", "1"),
    ("mumford", "--curve", "x^5+1", "--a", "1,1,1,1", "--b", "1"),
    ("mumford", "--curve", "x^5+1", "--a", "2,3", "--b", "1"),
    ("search", "--curve", "x^5+1", "--height", "0"),
    ("unitsieve", "--i", "3"),
    ("unitsieve", "--i", "8", "--primes", "11,x"),
    ("unitsieve", "--i", "8", "--primes", "5"),
    ("sieve", "--i", "30", "--p", "2"),
    ("sieve", "--i", "1", "--p", "7"),
    ("sieve", "--i", "1", "--p", "2", "--depth", "2"),
    ("frey", "--scan", "3"),
    ("derive", "--family", "48", "--i", "5"),
    ("run", "--stage", "table5", "--depth", "0"),
    ("unitsieve", "--i", "16", "--primes", "21"),
    ("run", "--stage", "sextic", "--primes", "5", "--no-cache"),
    ("run", "--stage", "sextic", "--primes", "21"),
])
def test_bad_arguments_exit_2(capsys, argv):
    code, out, err = _gfe(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_readme_mumford_example(capsys):
    code, out, _err = _gfe(capsys, "mumford", "--curve", "D1t",
                           "--a", "1,3,4,2,1", "--b=-30,-90,-90,-60")
    assert code == 0
    assert "lies on" in out


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
