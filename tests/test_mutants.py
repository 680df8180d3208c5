from mutants import MUTANTS, ROOT, _fails


def test_each_mutant_site_and_its_killer_exist():
    # the list cannot rot: each old text is in its file exactly once, and
    # each expected killer is a test function of its file
    for path, old, new, test in MUTANTS:
        assert old != new
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, (path, old)
        test_file, name = test.split("::")
        assert f"def {name}(" in (ROOT / test_file).read_text(encoding="utf-8"), test


def test_a_failing_run_names_the_failing_test(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "def test_passes():\n    pass\n\n\ndef test_broken():\n    assert False\n")
    assert _fails(str(tmp_path), "test_one.py::test_passes") == ""
    assert "test_one.py::test_broken" in _fails(str(tmp_path))
