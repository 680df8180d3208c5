import ast
import fractions
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superq
from superq.rational import BACKEND, Rat, parse_rat, rat, rat_str


def test_backend_is_known():
    assert BACKEND == "fractions"
    assert Rat is fractions.Fraction


def test_rat_construction():
    assert rat(3, 6) == rat(1, 2)
    assert rat("7/3") == rat(7, 3)
    assert rat(-4) == -4
    assert rat(2, 4).denominator == 2


def test_rat_str_canonical():
    assert rat_str(rat(4, 2)) == "2"
    assert rat_str(rat(-3, 2)) == "-3/2"
    assert rat_str(rat(0)) == "0"
    assert parse_rat("-3/2") == rat(-3, 2)
    for text, value in [("3", rat(3)), ("-4/3", rat(-4, 3)), ("+2", rat(2)),
                        (" 3/4 ", rat(3, 4))]:
        assert parse_rat(text) == value, text
    # only `a` and `a/b` in ASCII digits: no decimals, exponents, underscores
    # or other scripts' digits, so a short text cannot ask for a huge number
    for text in ["three halves", "0.5", "1e3", "1e100000000", "1_000", "٣",
                 "", "1/", "/2", "1/0"]:
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rat(text)


def _env_with_src():
    # a child interpreter imports this checkout's superq, installed or not
    env = dict(os.environ)
    src = str(Path(superq.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_forced_fallback_backend():
    # SUPERQ_RATIONAL named a second backend once; any value is now ignored
    env = _env_with_src()
    for value in ("fractions", "gmpy2", "pure"):
        env["SUPERQ_RATIONAL"] = value
        proc = subprocess.run([sys.executable, "-m", "superq", "g", "4,1"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3\n", ""), value


def test_fallback_computes_same_values():
    # a real end-to-end computation must not depend on the environment
    code = (
        "import os; os.environ['SUPERQ_RATIONAL'] = 'fractions'; "
        "from superq.plancherel import average_symbolic; "
        "from superq.gamma import GammaElement; "
        "print(average_symbolic(GammaElement.p(3) ** 2))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=_env_with_src(),
    )
    assert out.stdout.strip() == "9*n^(4) + 54*n^(3) + 31*n^(2) + n"


def test_package_imports_only_the_standard_library():
    for path in Path(superq.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
                # both cost more to import than the package uses of them
                assert name not in ("typing", "dataclasses"), (path.name, name)


def test_every_imported_name_is_used():
    # __init__.py only re-exports, so it is the one module left out
    for path in Path(superq.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name in used, (path.name, name)


# Recursions that stay: the expression evaluator and parser follow the
# nesting of the input.
ALLOWED_SELF_CALLS = {
    ("expr.py", "eval_expr"),
    ("expr.py", "_Parser.unary"),
}


def _calls_itself(func, owner):
    # f(...) in a function f; self.f(...) or cls.f(...) in a method f
    for call in ast.walk(func):
        if not isinstance(call, ast.Call):
            continue
        target = call.func
        if owner is None and isinstance(target, ast.Name) and target.id == func.name:
            return True
        if (owner is not None and isinstance(target, ast.Attribute)
                and target.attr == func.name and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls", owner)):
            return True
    return False


def _self_calls(tree):
    """Qualified names of the functions and methods that call themselves."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _calls_itself(child, owner):
                    found.append(f"{owner}.{child.name}" if owner else child.name)
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def test_no_function_calls_itself_outside_the_allow_list():
    found = set()
    for path in Path(superq.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, name) for name in _self_calls(tree)}
    assert found <= ALLOWED_SELF_CALLS, sorted(found - ALLOWED_SELF_CALLS)
    # the guard sees each allowed recursion, so the list holds no stale entry
    assert found == ALLOWED_SELF_CALLS
