from mutants import MUTANTS, ROOT


def test_each_mutant_site_and_its_killer_exist():
    # the list cannot rot: each old text is in its file exactly once, and
    # each expected killer is a test function of its file
    for path, old, new, test in MUTANTS:
        assert old != new
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, (path, old)
        test_file, name = test.split("::")
        assert f"def {name}(" in (ROOT / test_file).read_text(encoding="utf-8"), test
