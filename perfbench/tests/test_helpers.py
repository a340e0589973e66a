"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import pytest

import exprs
import measure
import workloads

H = exprs.atom


def test_tail_leaves_ten_samples_beyond():
    value, pct, n = measure.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)


def test_tail_steps_below_ties():
    samples = [1.0] * 50 + [5.0] * 20
    value, pct, n = measure.tail(samples)
    assert value == 1.0
    assert sum(1 for s in samples if s > value) >= 10
    assert pct == pytest.approx(100 * 50 / 70)
    assert n == 70


def test_tail_of_eleven_samples_is_the_minimum():
    assert measure.tail([float(i) for i in range(11)])[0] == 0.0


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


@pytest.mark.parametrize("node, dim", [
    (H(1), 3),
    (H(2, True), 5),
    (("k", 3, H(2)), 15),
    (("S2", H(1)), 6),
    (("L2", H(2)), 10),
    (("x", H(1), H(2)), 15),
    (("+", H(0), H(3)), 8),
    (("S2", ("S2", H(1))), 21),
    (("L2", ("k", 900, H(1))), 2700 * 2699 // 2),
    (("S2", ("S2", ("S2", ("S2", H(2))))), 26357430),
])
def test_dimension_reference(node, dim):
    assert exprs.dimension(node) == dim


def test_render_parenthesises_only_where_needed():
    node = ("x", ("+", H(1), H(2)), ("k", 2, ("S2", H(3, True))))
    assert exprs.render(node) == "(H1 + H2) (x) 2*S2(H3*)"
    assert exprs.render(("k", 2, ("+", H(1), H(0)))) == "2*(H1 + H0)"
    assert exprs.render(("+", H(1), ("+", H(2), H(3)))) == "H1 + (H2 + H3)"


def test_rendered_expressions_parse_to_the_reference_dimension():
    from isoclips import parse_rep

    small = [node for node, defect in workloads.squares_corpus()
             if defect is None and exprs.max_square_argument(node) <= 60]
    assert len(small) > 100
    for node in small:
        assert parse_rep(exprs.render(node)).dim == exprs.dimension(node)


def test_printed_sum_dimension():
    assert workloads.sum_dimension("H4 + 2*H2 + 2*H0") == 21
    assert workloads.sum_dimension("3*H1* + H0") == 10
    assert workloads.sum_dimension("Traceback") is None


def test_admissible_by_name():
    assert workloads.admissible("D4", "so3")
    assert not workloads.admissible("D4^h", "so3")
    assert workloads.admissible("D4^h", "o3")
    assert workloads.admissible("[O x Zc2]", "o3")
    assert not workloads.admissible("[O^- x Zc2]", "o3")


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def workload(request):
    workloads.load_program()
    w = workloads.WORKLOADS[request.param]()
    w.load()
    yield w
    w.close()


def test_op_list_is_fixed_by_the_seed(workload):
    first = [op.key for op in workload.prepare(3)]
    again = [op.key for op in workload.prepare(3)]
    other = [op.key for op in workload.prepare(4)]
    assert first == again
    assert other != first
    assert sorted(other) == sorted(first)
    assert len(set(first)) == len(first)


def test_golden_file_covers_the_fold_corpus():
    fold = workloads.IsotropyFold()
    fold.load()
    keys = {workloads.fold_key(ctx, expr) for ctx, expr, _ in workloads.fold_corpus()}
    assert keys <= set(fold.golden)
