"""Optimal objectives of every fairness kind at the default configuration.

The values were produced by the dense two-phase tableau simplex that the
bounded-variable solver replaced, at bin widths 1.0 (n = 172) and 0.5
(n = 339). Every objective must stay within 1e-9 of them and CPP must pick
the same lattice point. Optimal policies are not pinned: CEO and EO have
alternative optima, so the vertex a solver lands on may differ.

CF and PSF are also pinned at bin width 0.25 (n = 653), from the
bounded-variable solver's LP over every PSF row, which the solve on the swap
chain's recurrent classes replaced.
"""

import pytest

from causalfair import cli
from causalfair.fairness import KINDS, solve_fair

PINNED = {
    1.0: {
        "none": 0.42791123287671234,
        "CF": 0.3502675000000005,
        "PSF": 0.3502675000000001,
        "CEO": 0.4232883536570394,
        "CPF": 0.41941946308961375,
        "CPP": 0.39978760003175606,
        "EO": 0.4232883536570394,
    },
    0.5: {
        "none": 0.42820053319919504,
        "CF": 0.35026750000000056,
        "PSF": 0.3502674999999999,
        "CEO": 0.42338540796903346,
        "CPF": 0.4223649574495793,
        "CPP": 0.4002850706414241,
        "EO": 0.42338540796903346,
    },
}
CPP_GRID_POINT = (0.54, 0.46)


@pytest.fixture(scope="module", params=list(PINNED))
def results(request):
    width = request.param
    config = cli.load_config(None, {("simulation", "bin_width"): width})
    d_pi, d_all = cli.simulate(config)
    pol = config["policy"]
    solved = {}
    for kind in KINDS:
        target = d_all if kind == "CF" else d_pi
        solved[kind] = solve_fair(target, cli._spec_for(kind, pol), lam=pol["lam"], b=pol["b"])
    return width, solved


@pytest.mark.parametrize("kind", KINDS)
def test_objective_matches_dense_tableau(results, kind):
    width, solved = results
    assert solved[kind].status == "Optimal"
    assert solved[kind].objective == pytest.approx(PINNED[width][kind], abs=1e-9)


def test_cpp_grid_point(results):
    _, solved = results
    assert solved["CPP"].grid_point == pytest.approx(CPP_GRID_POINT, abs=1e-12)


PINNED_FINE = {"CF": 0.3502674999999987, "PSF": 0.3502674999999998}


@pytest.fixture(scope="module")
def fine_dists():
    config = cli.load_config(None, {("simulation", "bin_width"): 0.25})
    return config["policy"], dict(zip(("PSF", "CF"), cli.simulate(config)))


@pytest.mark.parametrize("kind", PINNED_FINE)
def test_fine_bins_objective_matches_full_row_lp(fine_dists, kind):
    pol, dists = fine_dists
    solved = solve_fair(dists[kind], cli._spec_for(kind, pol), lam=pol["lam"], b=pol["b"])
    assert solved.status == "Optimal"
    assert solved.objective == pytest.approx(PINNED_FINE[kind], abs=1e-9)
