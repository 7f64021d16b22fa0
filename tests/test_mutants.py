"""The committed mutation list still points at the code it mutates.

tests/run_mutants.py applies each entry of tests/mutants.txt to a copy of
the tree and runs the tests that must catch it; that takes about a minute,
so it stays out of the suite. This test is its cheap half: each entry's
source text occurs exactly once in its file, so a change that moves or
rewrites a listed expression must update the list with it.
"""

from run_mutants import ROOT, read_mutants


def test_each_mutant_finds_its_source_text_exactly_once():
    mutants = read_mutants()
    assert len({m.name for m in mutants}) == len(mutants) > 0
    for mutant in mutants:
        source = (ROOT / mutant.file).read_text()
        assert source.count(mutant.find) == 1, mutant.name
        assert mutant.replace != mutant.find, mutant.name
        assert mutant.expect == "caught" or mutant.expect.startswith(
            "missed: "), mutant.name
        for named in mutant.tests:
            assert (ROOT / named.partition("::")[0]).is_file(), (mutant.name, named)
