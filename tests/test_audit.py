"""What the test oracles take from superq.

An oracle checks a fast route only as far as it shares no kernel with it.
Each ``tests/*oracle*.py`` may import the primitives below freely; every
other superq name it imports is listed here by name, with the reason it is
there, so a new dependency on a kernel shows up as a failing test.
"""

import ast
import importlib
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# the primitives an oracle may build on, by module; "*" is the whole module
PRIMITIVES = {
    # the partition types and enumerations, z, g by the hook formula, and
    # the Stirling rows
    "superq.partitions": {
        "OddPartition", "StrictPartition", "OrdinaryPartition",
        "enumerate_odd", "enumerate_strict", "enumerate_ordinary",
        "contains", "inner_corners", "outer_corners", "remove_cell",
        "shifted_cells", "z", "g",
        "_stirling1_row", "_stirling2_row", "stirling2",
    },
    "superq.rational": {"*"},
    # GammaElement and its arithmetic
    "superq.gamma": {"GammaElement", "add_into", "scalar_product"},
    # the one-row Q-functions Q_(k), sums over the odd partitions of k
    "superq.schurq": {"q_onerow"},
}

# (oracle file, module, name): why the oracle needs it
LISTED = {
    ("plancherel_oracle.py", "superq.plancherel", "prob"):
        "the per-shape probability the integer moments replace",
    ("plancherel_oracle.py", "superq.plancherel", "prob_mu"):
        "the per-shape deformed probability the integer moments replace",
    ("plancherel_oracle.py", "superq.plancherel", "average_bruteforce"):
        "the per-node route interpolates brute-force values at each node",
    ("plancherel_oracle.py", "superq.plancherel", "average_mu_bruteforce"):
        "the per-node route of the deformed measure, likewise",
    ("plancherel_oracle.py", "superq.plancherel", "PolynomialInN"):
        "the container the per-node route returns, compared with the walk's",
    ("recursive_oracle.py", "superq.factorial", "p_to_pstar_coeffs"):
        "the Stirling system T that P* is solved from; the same sweep as p_star",
    ("recursive_oracle.py", "superq.factorial", "normalize_index"):
        "sorts an index tuple with its sign for the walk over all tuples",
    ("recursive_oracle.py", "superq.frakp", "frak_p"):
        "the peeling subtracts frak_p(rho), which is Psi by the s-system",
    ("recursive_oracle.py", "superq.frakp", "FrakExpansion"):
        "the container the peeling returns, compared with expand_gamma_in_frak",
    ("recursive_oracle.py", "superq.schurq", "p_fn"):
        "P_mu in the p-basis, through the row combination p_star also uses",
    ("recursive_oracle.py", "superq.gamma", "add_scaled"):
        "out += c * element in place, the helper the P* recursion sums with",
    ("recursive_oracle.py", "superq.content", "EvenPolynomial"):
        "(X+1)^{2k+1} - X^{2k+1} as an even polynomial for hat_p's system",
    ("recursive_oracle.py", "superq.content", "rewrite_XY"):
        "rewrites it in Y = X(X+1), the coefficients of hat_p's system",
    ("recursive_oracle.py", "superq.content", "psi_direct"):
        "the corner sums psi_k(lambda) the generating-series identity needs",
}


def oracle_imports():
    """(oracle file, module, name) for every superq import of every oracle,
    at any depth; ``import superq.x`` gives the name "*"."""
    found = set()
    for path in sorted(TESTS.glob("*oracle*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "superq"):
                found |= {(path.name, node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Import):
                found |= {(path.name, alias.name, "*") for alias in node.names
                          if alias.name.split(".")[0] == "superq"}
    return found


def test_oracles_import_only_primitives_and_the_listed_names():
    found = oracle_imports()
    assert {name for name, _, _ in found} >= {
        "pfaffian_oracle.py", "plancherel_oracle.py", "recursive_oracle.py"}
    unlisted = sorted(
        entry for entry in found
        if entry not in LISTED
        and not PRIMITIVES.get(entry[1], set()) & {entry[2], "*"})
    assert not unlisted, f"oracle imports neither primitive nor listed: {unlisted}"
    # a name no oracle imports any more leaves the list
    assert sorted(set(LISTED) - found) == []


def test_the_audited_names_exist():
    for module, names in PRIMITIVES.items():
        loaded = importlib.import_module(module)
        assert all(hasattr(loaded, name) for name in names - {"*"}), module
    for _, module, name in LISTED:
        assert hasattr(importlib.import_module(module), name), (module, name)
