"""Bytes of the binned tables and the frontier sweep at a fixed sample.

The SHA-256 values were produced by the per-draw ``build_distribution`` and
the per-share ``threshold_policy`` sweep that the numpy aggregation replaced,
from ``cli.simulate`` at n = 20000 and seed 1. ``mass.csv``, ``cf.csv`` and
``frontier.csv`` must stay byte-identical to them.
"""

import hashlib

import pytest

from causalfair import cli
from causalfair.dist import write_tables
from causalfair.pareto import frontier

PINNED = {
    1.0: (
        "8dd0b69bc47933438eeb9db6966a0be392d98c0f0f50d159133556472141b9f3",
        "119ea8a10e1bb74d12edf3f7c124d7d847144cca758022d5c64d5b3b7cfd8359",
        "5d7f13046af315cbbcc9a42be0348b3add969d5742070a4e8d521f6db7b832b1",
    ),
    0.5: (
        "ac3cc3a28143fdef8a3724651acdc17ff2222e321d6729249b8ce8994395b035",
        "05df0588a5a9ede48a638ed432c26cab89dce8e54c623640e23073d1fb97c99f",
        "960bdd6932b3e7ff84cb2be8d39f5a00dd958925b47607d69f3a661fe017a38a",
    ),
}


@pytest.mark.parametrize("width", list(PINNED))
def test_tables_and_frontier_bytes(tmp_path, width):
    config = cli.load_config(
        None,
        {("simulation", "n"): 20000, ("simulation", "seed"): 1, ("simulation", "bin_width"): width},
    )
    d_pi, _ = cli.simulate(config)
    paths = [tmp_path / name for name in ("mass.csv", "cf.csv", "frontier.csv")]
    write_tables(d_pi, paths[0], paths[1])
    cli.write_frontier_csv(paths[2], frontier(d_pi, 0.5, 200))
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
    assert digests == PINNED[width]
