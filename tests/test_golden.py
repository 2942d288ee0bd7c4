import json

from record_golden import GOLDEN, recorded


def test_outputs_match_the_golden_digests():
    """Every mlr and nca solution file and MLR trace of the golden corpus,
    and exact's statuses and solution files and the results.csv of the
    exact-small config, hash to their digests in golden.json (re-recorded
    only by record_golden.py, in a change that means to change outputs).

    The alpha=2.5 and alpha=3.7 cases raise squared radii to a
    non-integer power alpha/2, so their digests also pin the recording
    platform's libm ``pow``: on another libm a mismatch there may come
    from ``pow``, not from a solver.
    """
    golden = json.loads(GOLDEN.read_text())
    got = recorded()
    assert got.keys() == golden.keys()
    assert len(got) == 90
    mismatched = [(name, key) for name, expected in golden.items()
                  for key in sorted(expected.keys() | got[name].keys())
                  if got[name].get(key) != expected.get(key)]
    assert mismatched == []
