from bosonfermion.fermion import basis_state
from bosonfermion.partitions import Partition
from bosonfermion.verify import _Check, correspondence_suite, heisenberg_geometric_suite


class _Unprintable:
    def __format__(self, spec):
        raise AssertionError("a passing check formatted its witness")


def test_record_formats_only_the_first_failure():
    check = _Check("example")
    check.record(True, "state={}", _Unprintable())
    left, right = basis_state(0, Partition((1,))), basis_state(1, Partition())
    check.record(False, "k={}, pair=({}, {})", -2, left, right)
    check.record(False, "state={}", _Unprintable())
    result = check.result()
    assert result.checked == 3 and not result.passed
    assert result.counterexample == "k=-2, pair=(phi[1], phi[]@1)"


def test_cross_checks_run_and_pass():
    results = {r.name: r for r in heisenberg_geometric_suite(5, 3) + correspondence_suite(4, 2, 1)}
    for name in ("geometric-boson-transport", "schur-expand-rebuild"):
        assert results[name].passed and results[name].checked > 0
