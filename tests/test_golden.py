import json

from record_golden import GOLDEN, corpus, digests


def test_outputs_match_the_golden_digests():
    """Every mlr and nca solution file and MLR trace of the golden corpus
    hashes to its digest in golden.json (re-recorded only by
    record_golden.py, in a change that means to change outputs).

    The alpha=2.5 and alpha=3.7 cases raise squared radii to a
    non-integer power alpha/2, so their digests also pin the recording
    platform's libm ``pow``: on another libm a mismatch there may come
    from ``pow``, not from a solver.
    """
    golden = json.loads(GOLDEN.read_text())
    got = {name: digests(inst) for name, inst in corpus()}
    assert got.keys() == golden.keys()
    assert len(got) == 86
    mismatched = [(name, key) for name, expected in golden.items()
                  for key in sorted(expected.keys() | got[name].keys())
                  if got[name].get(key) != expected.get(key)]
    assert mismatched == []
