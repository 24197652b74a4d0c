import pytest
import tracing
from tracing import Span


def _span(name, start, end, parent=None, run_id=0, **attrs):
    return Span(name, start, end, parent, run_id, attrs)


def test_self_time_subtracts_child_cover():
    spans = [
        _span("root", 0.0, 10.0),
        _span("child", 1.0, 4.0, parent=0),
        _span("grandchild", 2.0, 3.0, parent=1),
        _span("child", 6.0, 7.0, parent=0),
        _span("other", 10.0, 12.0),
        _span("overlapped", 20.0, 30.0),
        _span("a", 21.0, 25.0, parent=5),
        _span("b", 24.0, 28.0, parent=5),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 2.0, 3.0, 4.0, 4.0])


def test_layer_metrics_on_synthetic_operation():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("scm.draw_worlds", 1.0, 2.0, parent=0),
        _span("fairness.solve_fair.CPP", 3.0, 8.0, parent=0),
        _span("linprog.solve", 3.0, 4.0, parent=2, rows=5, cols=9, rank=3, status="Optimal"),
        _span("linprog.solve", 4.0, 6.0, parent=2, rows=5, cols=9, rank=4, status="Infeasible"),
        _span("linprog.solve", 8.5, 9.0, parent=0, rows=7, cols=9, rank=2, status="Optimal"),
        _span("cli.main", 0.0, 1.0, run_id=1),
    ]
    m = tracing.layer_metrics(spans, run_id=0, wall=10.0)
    assert set(m) == set(tracing.PER_LAYER)
    assert m["cli.self_s"] == pytest.approx(10.0 - 1.0 - 5.0 - 0.5)
    assert m["scm.draw_worlds_s"] == pytest.approx(1.0)
    assert m["linprog.solve_s"] == pytest.approx(3.5)
    assert m["linprog.solve_calls"] == 3
    assert m["linprog.infeasible_calls"] == 1
    assert m["fairness.cpp_lattice_points"] == 2
    assert m["fairness.cpp_feasible_ratio"] == pytest.approx(0.5)
    assert (m["linprog.rows_max"], m["linprog.cols"], m["linprog.rank_max"]) == (7, 9, 4)
    assert m["trace.top_level_coverage"] == pytest.approx(1.0)


def test_instrumented_restores_the_package():
    from causalfair import cli, fairness

    before = (cli.main, cli.solve_fair, fairness.solve)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert cli.main is not before[0]
        cli.load_config(None)
    assert (cli.main, cli.solve_fair, fairness.solve) == before
    assert [s.name for s in tracer.spans] == ["cli.load_config"]
