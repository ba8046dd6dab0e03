"""scripts/find_units.py, which generated data/units, against that data."""

import ast
import importlib.util
import json
import pathlib

import pytest

from gfe25 import algebra, descent

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "find_units.py"


@pytest.fixture(scope="module")
def find_units():
    # loaded under its own name, so its main() does not run
    spec = importlib.util.spec_from_file_location("find_units", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rep", sorted(set(descent.FIELD_REP.values())))
def test_find_units_picks_the_bundled_generators(find_units, rep):
    # the script's classes and rank are the certificate's, so it accepts
    # the bundled generators, in order, at the bundled primes
    K = algebra.coefficient_field(rep)
    gens = descent.verify_unit_data(rep)
    cert_primes = json.loads(descent.unit_data_file(rep).read_text())[
        "certPrimes"]
    qs = find_units.cert_primes(K)
    assert [q for q, _ in qs] == cert_primes == [11, 31, 41]
    assert find_units.pick_independent(gens, qs) == gens


def test_find_units_writes_no_file():
    # the bundled unit files are certified as they are (verify_unit_data);
    # the script prints what it finds, since a rewritten file would move
    # every report's data digest and cache key
    tree = ast.parse(SCRIPT.read_text())
    writes = [node.lineno for node in ast.walk(tree)
              if (isinstance(node, ast.Attribute)
                  and node.attr in ("write_text", "write_bytes", "mkdir"))
              or (isinstance(node, ast.Name) and node.id == "open")]
    assert writes == []
