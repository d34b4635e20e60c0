"""The benchmark's span wrappers (perfbench/spans.py) against the enumerator.

The wrappers replace names in `ffgmc.enumerator` and read the results of
two of them: `state_table`'s cache statistics and its row array, and the
rows `scan_states` reports.  A refactor that renames one of those names, or
changes what those results hold, would make the per-layer metrics read
wrong numbers without any error; these tests fail first.
"""

import importlib.util
from pathlib import Path

import pytest

from ffgmc import enumerator
from ffgmc.enumerator import VERDICT_COUNTEREXAMPLE, Bounds, search
from ffgmc.mutation import parse_mutation
from ffgmc.tables import state_count

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# the falsify-c3 benchmark workload: criterion-3 bounds under quorum-half
C3 = Bounds(n_blocks=2, n_validators=4, max_votes=12, max_ffg_votes=4, max_chkp_slot=3)


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_in_the_enumerator(spans):
    for layer, name in spans.WRAPPED:
        assert callable(getattr(enumerator, name, None)), f"{layer}.{name}"


def test_the_wrapped_results_hold_what_the_metrics_read(spans, monkeypatch):
    # a traced falsify-c3 run builds one row table, u=4 without a signer
    # floor, and its kernel calls report the rows the run did not settle
    # by symmetry
    for _, name in spans.WRAPPED:
        monkeypatch.setattr(enumerator, name, getattr(enumerator, name))
    assert hasattr(enumerator.state_table, "cache_info")
    enumerator.state_table.cache_clear()
    tracer = spans.Tracer(run_id=0)
    tracer.install(enumerator)
    report = search(C3, parse_mutation("quorum-half"))
    assert report.verdict == VERDICT_COUNTEREXAMPLE
    assert tracer.table_misses == 1
    assert tracer.table_rows == state_count(4, 4, 12, 0)
    assert tracer.rows_scanned == report.states_checked - report.states_symmetric > 0
    rows = enumerator.state_table(4, 4, 12, 0, parse_mutation("quorum-half"))[0]
    assert rows.shape == (state_count(4, 4, 12, 0), 4)
