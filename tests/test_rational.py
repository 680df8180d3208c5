import subprocess
import sys

import pytest

from superq.rational import BACKEND, is_integral, parse_rat, rat, rat_str


def test_backend_is_known():
    assert BACKEND in ("gmpy2", "fractions")


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
    with pytest.raises(ValueError):
        parse_rat("three halves")
    with pytest.raises(ValueError):
        parse_rat("1/0")


def test_is_integral():
    assert is_integral(rat(6, 3))
    assert not is_integral(rat(1, 3))


def _backend_in_subprocess(env_value):
    code = (
        "import os; os.environ['SUPERQ_RATIONAL'] = %r; "
        "from superq.rational import BACKEND; print(BACKEND)" % env_value
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_forced_fallback_backend():
    assert _backend_in_subprocess("fractions") == "fractions"


@pytest.mark.parametrize("name", ["fraction", "pure", "float"])
def test_unknown_backend_name_is_refused(name):
    with pytest.raises(subprocess.CalledProcessError) as exc:
        _backend_in_subprocess(name)
    assert "not understood" in exc.value.stderr


def test_fallback_computes_same_values():
    # a real end-to-end computation must not depend on the backend
    code = (
        "import os; os.environ['SUPERQ_RATIONAL'] = 'fractions'; "
        "from superq.plancherel import average_symbolic; "
        "from superq.gamma import GammaElement; "
        "print(average_symbolic(GammaElement.p(3) ** 2))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "9*n^(4) + 54*n^(3) + 31*n^(2) + n"
