"""Property test of check_decay, the one quarter-decay checker, on random
count sequences of a single run.

Derandomized, so every run draws the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcov.ranking import check_decay  # noqa: E402

COUNTS = st.lists(st.integers(0, 6), max_size=10)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rs=COUNTS, ss=COUNTS, base=st.integers(1, 9),
       horizon=st.integers(0, 600))
def test_one_run_verdict_and_stop_level(rs, ss, base, horizon):
    # level j reads R_j = rs[j] and R*_j = ss[j], zero past the lists
    def at(seq, j):
        return seq[j] if j < len(seq) else 0

    asked = []

    def counts(t, t_star):
        j = t_star.bit_length() - 1
        assert (t, t_star) == (base << j, 1 << j)
        asked.append(j)
        return [(at(rs, j), at(ss, j))]

    ok, rows = check_decay(counts, base, horizon)
    assert asked == list(range(len(rows)))
    for j, r, p, s, ds, dq in rows:
        assert (r, p, s) == (at(rs, j), at(rs, j - 1) if j else 0, at(ss, j))
        assert ds == 4 * r - p - 4 * s and dq == ds * ds
    assert ok == all(4 * r <= p + 4 * s for _, r, p, s, _, _ in rows)

    def done(j):
        return (base << j > horizon and 1 << j > horizon
                and at(rs, j) == 0 and at(ss, j) == 0)

    last = rows[-1][0]
    assert done(last) and not any(done(j) for j in range(last))


RUNS = st.lists(st.tuples(COUNTS, COUNTS, st.integers(1, 5)), min_size=1,
                max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(runs=RUNS, base=st.integers(1, 9), horizon=st.integers(0, 600))
def test_weighted_runs_match_repeated_runs(runs, base, horizon):
    # a run of weight w gives the same sums and verdict as w copies of it
    def at(seq, j):
        return seq[j] if j < len(seq) else 0

    def counts_of(seqs):
        def counts(t, t_star):
            j = t_star.bit_length() - 1
            return [(at(rs, j), at(ss, j)) for rs, ss in seqs]
        return counts

    distinct = [(rs, ss) for rs, ss, _ in runs]
    copies = [(rs, ss) for rs, ss, w in runs for _ in range(w)]
    assert check_decay(counts_of(distinct), base, horizon,
                       [w for _, _, w in runs]) == \
        check_decay(counts_of(copies), base, horizon)
