"""Bytes of the binned tables, the frontier sweep and the policy and
transition files at a fixed sample.

The SHA-256 values of ``mass.csv``, ``cf.csv`` and ``frontier.csv`` were
produced by the per-draw ``build_distribution`` and the per-share
``threshold_policy`` sweep that the numpy aggregation replaced, those of
``policy.csv`` and ``transitions.csv`` by the per-file CSV writers that the
shared ``dist`` writer replaced, all from ``cli.simulate`` at n = 20000 and
seed 1. Every file must stay byte-identical to them.
"""

import hashlib

import pytest

from causalfair import cli
from causalfair.dist import write_tables
from causalfair.pareto import Policy, frontier

PINNED = {
    1.0: (
        "8dd0b69bc47933438eeb9db6966a0be392d98c0f0f50d159133556472141b9f3",
        "119ea8a10e1bb74d12edf3f7c124d7d847144cca758022d5c64d5b3b7cfd8359",
        "5d7f13046af315cbbcc9a42be0348b3add969d5742070a4e8d521f6db7b832b1",
        "a404f6bf220ade759730b0ad94aab25b8bd0267043d5f7f18c110780eca97a5c",
        "7934c841674a46fa9df36fa917198ac94f8be7a1ee41e9dc31bbb2259d716f3d",
    ),
    0.5: (
        "ac3cc3a28143fdef8a3724651acdc17ff2222e321d6729249b8ce8994395b035",
        "05df0588a5a9ede48a638ed432c26cab89dce8e54c623640e23073d1fb97c99f",
        "960bdd6932b3e7ff84cb2be8d39f5a00dd958925b47607d69f3a661fe017a38a",
        "1992f03391b1cb7d6b0021617f238460cd0cc43b7ae56e61cba08436d7eab6a4",
        "c93e362db0ccc2d3c29ade442f8b548d458fa516a25fa76dd3eaa598efaa49eb",
    ),
}


@pytest.mark.parametrize("width", list(PINNED))
def test_tables_and_frontier_bytes(tmp_path, width):
    config = cli.load_config(
        None,
        {("simulation", "n"): 20000, ("simulation", "seed"): 1, ("simulation", "bin_width"): width},
    )
    d_pi, _ = cli.simulate(config)
    names = ("mass.csv", "cf.csv", "frontier.csv", "policy.csv", "transitions.csv")
    paths = [tmp_path / name for name in names]
    write_tables(d_pi, paths[0], paths[1])
    cli.write_frontier_csv(paths[2], frontier(d_pi, 0.5, 200))
    # A solver-free policy whose values span (0, 1], so the pin is on the writer.
    cli.write_policy_csv(paths[3], d_pi, Policy(d=d_pi.mass / d_pi.mass.max()))
    cli.write_transitions_csv(paths[4], d_pi)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == PINNED[width]
