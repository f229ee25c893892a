"""tools/mutants.py: every mutant's old text is found exactly once, so the
mutant table cannot drift from the source, and a mutant's own test file
runs first. The mutants themselves run in their own CI step, not here."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    assert mutants.MUTANTS
    assert len({mt.name for mt in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert mutants.problems() == []


def test_a_drifted_mutant_is_named(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\nx = 1\ny = 2\n")
    drifted = [mutants.Mutant("twice", "f.py", "x = 1", "x = 2", ""),
               mutants.Mutant("missing", "f.py", "z = 3", "z = 4", ""),
               mutants.Mutant("same", "f.py", "y = 2", "y = 2", ""),
               mutants.Mutant("fine", "f.py", "y = 2", "y = 3", "")]
    assert mutants.problems(drifted, str(tmp_path)) == [
        "twice: old text found 2 times in f.py",
        "missing: old text found 0 times in f.py",
        "same: new text is the old"]


def test_a_mutants_own_test_file_runs_first():
    order = {mt.file: mutants.run_order(mt) for mt in mutants.MUTANTS}
    assert order["src/axfault/faults.py"][0] == "tests/test_faults.py"
    assert order["src/axfault/quantize.py"][0] == "tests/test_quantize.py"
    assert order["src/axfault/network.py"][0] == "tests/test_network.py"
    assert order["src/axfault/datasets.py"][0] == "tests/test_datasets.py"
    assert order["src/axfault/mitigation.py"][0] == "tests/test_mitigation.py"
    # every file still runs before a mutant survives
    for files in order.values():
        assert sorted(files) == sorted(mutants.TEST_FILES)
    other = mutants.Mutant("other", "src/axfault/cli.py", "a", "b", "")
    assert mutants.run_order(other) == mutants.TEST_FILES
    assert mutants.run_order(None) == mutants.TEST_FILES
