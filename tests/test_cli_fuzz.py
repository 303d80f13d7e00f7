"""Property tests of the exit-code contract: 0 ok, 2 invariant or bad
input, 3 infeasible, and never a traceback, whatever the arguments.

Derandomized, so every run draws the same examples.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latcov import cli  # noqa: E402


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(-1, 9), seed=st.integers(0, 1000),
       samples=st.integers(-2, 40), oracle=st.booleans())
def test_wssr_generated_instances_keep_exit_contract(n, seed, samples,
                                                     oracle):
    argv = ["wssr", "--gen", f"stochastic:n={n}:seed={seed}",
            "--samples", str(samples)] + (["--oracle"] if oracle else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
