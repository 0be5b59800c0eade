"""verify's result records and the size of the sweep's pool.

The records keep their field names and keyword construction; the frozen ones
stay read-only, and a SweepReport crosses a pool as a pickle.  The pool tests
replace multiprocessing.Pool by a recorder, so they start no process.
"""

import multiprocessing
import pickle

import pytest

from octachar.cli import main
from octachar.partitions import Partition
from octachar.verify import (
    CorrespondenceRow,
    SignCensus,
    SweepReport,
    TableResult,
    build_table,
    main_theorem_sweep,
    sign_census,
)


def test_field_names():
    assert CorrespondenceRow._fields == ("lambda_even", "lambda_odd", "theta_even", "theta_odd", "sign", "bn_dim")
    assert TableResult._fields == ("n", "rows", "excluded_even", "excluded_odd")
    assert SignCensus._fields == ("m", "num_positive", "num_negative", "num_zero")
    assert vars(SweepReport()) == {"checked": 0, "oracle_checked": 0, "failures": []}


def test_keyword_construction_and_total():
    census = SignCensus(m=6, num_positive=5, num_negative=5, num_zero=1)
    assert sign_census(6) == census
    assert census.total == 11
    row = CorrespondenceRow(
        lambda_even=Partition([2]), lambda_odd=Partition([3]), theta_even=1, theta_odd=1, sign=1, bn_dim=1
    )
    assert build_table(1).rows[-1] == row


def test_frozen_records_are_read_only():
    census = sign_census(4)
    with pytest.raises(AttributeError):
        census.num_zero = 0
    with pytest.raises(AttributeError):
        build_table(1).rows[0].sign = -1


def test_sweep_reports_do_not_share_failures():
    first, second = SweepReport(), SweepReport()
    first.failures.append("x")
    assert second.failures == []


def test_sweep_report_survives_pickle():
    report = SweepReport()
    report.checked, report.oracle_checked = 10, 3
    report.failures.append("identity fails: ...")
    copy = pickle.loads(pickle.dumps(report))
    assert vars(copy) == vars(report)
    assert not copy.ok


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the size asked for, maps in process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


@pytest.fixture
def pool_sizes(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return RecordingPool.sizes


@pytest.mark.parametrize(
    "n_max, jobs, sizes",
    [(1, 3, []), (3, 1, []), (2, 2, [2]), (3, 8, [3]), (4, 10**6, [4])],
)
def test_pool_is_sized_to_the_work(pool_sizes, n_max, jobs, sizes):
    serial = main_theorem_sweep(n_max)
    report = main_theorem_sweep(n_max, jobs=jobs)
    assert pool_sizes == sizes
    assert vars(report) == vars(serial)


def test_sweep_header_keeps_the_jobs_given(pool_sizes, capsys):
    assert main(["sweep", "--max", "2", "--jobs", "1000"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sweep: max=2 jobs=1000"
    assert pool_sizes == [2]
