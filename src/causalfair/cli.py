"""JSON-configured command line interface.

The ``run`` subcommand executes the full experiment pipeline: simulate the
model, bin the draws, optimize a policy per fairness definition, sweep the
frontier, measure dominance gaps, and analyze the counterfactual transition
chain. The other subcommands run single stages on config plus optional input
CSVs. All outputs are deterministic given the config bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

import numpy as np

from . import dist as dist_mod
from . import markov as markov_mod
from . import scm as scm_mod
from .betafair import prop4_check
from .errors import CausalFairError, ConfigError
from .fairness import KINDS, FairnessSpec, residual_report, solve_fair
from .pareto import Policy, dominance_gap, evaluate_policy, frontier

__all__ = ["main", "load_config", "run"]

_DEFAULTS = {
    "scm": {"constants": {}, "paths": [["A", "E", "T", "D"]]},
    "simulation": {"n": 100000, "seed": 1, "bin_width": 1.0, "score_lo": 0.0, "score_hi": 100.0},
    "policy": {
        "b": 0.5,
        "lam": 0.25,
        "kind": "none",
        "omega": "constant",
        "grid_step": 0.01,
        "frontier_resolution": 200,
    },
    "output": {"directory": ".", "population": 100000},
}


def load_config(path=None, overrides=None):
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    config = {}
    for block, defaults in _DEFAULTS.items():
        user = raw.get(block, {})
        if not isinstance(user, dict):
            raise ConfigError(f"config block {block!r} must be an object")
        merged = dict(defaults)
        merged.update(user)
        config[block] = merged
    for block in raw:
        if block not in _DEFAULTS:
            raise ConfigError(f"unknown config block {block!r}")
    if overrides:
        for (block, key), value in overrides.items():
            config[block][key] = value
    try:
        _validate(config)
    except TypeError as exc:  # a comparison with a value of the wrong type
        raise ConfigError(f"config value of the wrong type: {exc}") from exc
    return config


def _validate(config):
    pol = config["policy"]
    sim = config["simulation"]
    if not 0 < pol["b"] < 1:
        raise ConfigError("policy.b must lie in (0, 1)")
    if pol["lam"] < 0:
        raise ConfigError("policy.lam must be nonnegative")
    if not _is_int(sim["n"], 1):
        raise ConfigError("simulation.n must be an integer of at least 1")
    if not _is_int(sim["seed"], 0, 2**96):  # the Philox key seed << 32 ^ node stays below 2**128
        raise ConfigError("simulation.seed must be an integer in [0, 2**96)")
    if not sim["bin_width"] > 0:
        raise ConfigError("simulation.bin_width must be positive")
    if not sim["score_lo"] < sim["score_hi"]:
        raise ConfigError("simulation.score_lo must be below simulation.score_hi")
    if pol["kind"] not in KINDS:
        raise ConfigError(f"policy.kind must be one of {KINDS}")
    if pol["omega"] not in ("constant", "identity"):
        raise ConfigError("policy.omega must be 'constant' or 'identity'")
    if not 0 < pol["grid_step"] <= 1:
        raise ConfigError("policy.grid_step must lie in (0, 1]")
    if not _is_int(pol["frontier_resolution"], 2):
        raise ConfigError("policy.frontier_resolution must be an integer of at least 2")
    if config["output"]["population"] <= 0:
        raise ConfigError("output.population must be positive")


def _is_int(value, lo, hi=None) -> bool:
    """``value`` is an int (not a bool) with lo <= value, and value < hi if given."""
    return type(value) is int and lo <= value and (hi is None or value < hi)


def build_scm(scm_block):
    """Admissions model by default; a declarative node list otherwise."""
    if "nodes" not in scm_block:
        return scm_mod.admissions_scm(scm_block.get("constants") or None)
    nodes = scm_block["nodes"]
    names = tuple(spec["name"] for spec in nodes)
    parents = {spec["name"]: tuple(spec.get("parents", ())) for spec in nodes}
    equations = {}
    exogenous = {}
    for spec in nodes:
        eq = dict(spec["equation"])
        form = eq.pop("form")
        if "coeffs" in eq:
            eq["coeffs"] = dict(eq["coeffs"])
        if "interactions" in eq:
            eq["interactions"] = tuple((p1, p2, float(c)) for p1, p2, c in eq["interactions"])
        equations[spec["name"]] = scm_mod.Equation(form=form, **eq)
        exogenous[spec["name"]] = spec.get("exogenous", "uniform-0-1")
    return scm_mod.Scm(
        dag=scm_mod.CausalDag(nodes=names, parents=parents),
        equations=equations,
        exogenous=exogenous,
        group_node=scm_block["group_node"],
        decision_node=scm_block["decision_node"],
        decision_parents=tuple(scm_block["decision_parents"]),
        outcome_node=scm_block["outcome_node"],
        groups=tuple(scm_block.get("groups", ("a0", "a1"))),
    )


def path_set(scm, scm_block):
    paths = scm_block.get("paths")
    if paths == "all" or paths is None:
        return scm_mod.all_paths(scm)
    return scm_mod.PathSet(paths=tuple(tuple(p) for p in paths))


def simulate(config):
    """Draw worlds and bin them; returns (psf dist, cf dist).

    The first distribution carries counterfactual masses for the configured
    path collection, the second for all group-to-decision paths.
    """
    model = build_scm(config["scm"])
    pi = path_set(model, config["scm"])
    sim = config["simulation"]
    binning = dist_mod.Binning(width=sim["bin_width"], lo=sim["score_lo"], hi=sim["score_hi"])
    targets = list(range(len(model.groups)))
    sample = scm_mod.draw_worlds(model, pi, targets, n=sim["n"], seed=sim["seed"])
    d_pi = dist_mod.discretize(model, sample, pi, binning)
    pi_all = scm_mod.all_paths(model)
    scm_mod.add_counterfactuals(model, sample, pi_all, targets)
    d_all = dist_mod.discretize(model, sample, pi_all, binning)
    return d_pi, d_all


def write_policy_csv(path, dist, policy):
    dist_mod.write_csv(path, ["group", "bin", "d"], zip(dist.group, dist.bin, policy.d))


def read_policy_csv(path, dist):
    """A policy from a (group, bin, d) CSV; a file that cannot be read or a
    malformed row raises ``ConfigError`` naming the file and the row. Rows for
    points outside the support are ignored; of two rows for a point, the last wins."""
    table = dist_mod.read_csv(path, (("group", int), ("bin", int), ("d", float)), "policy file")
    g, b, value = np.array(table, dtype=object).reshape(-1, 3).T
    value = value.astype(np.float64)
    outside = ~((value >= 0) & (value <= 1))
    if outside.any():
        row = int(np.argmax(outside))
        where = f"policy file {path}, row {row + 1}"
        raise ConfigError(f"{where}: d = {table[row][2]!r} lies outside [0, 1]")
    support_group, support_bin, inverse, lookup = dist_mod._support_index(dist.group, dist.bin)
    # Rows reversed, so each point's first hit in np.unique is its last row.
    point, row = np.unique(lookup(g, b)[::-1], return_index=True)
    d = np.full(len(support_group), np.nan)
    d[point[point >= 0]] = value[::-1][row[point >= 0]]
    if np.isnan(d).any():
        i = int(np.argmax(np.isnan(d)))
        key = (int(support_group[i]), int(support_bin[i]))
        raise ConfigError(f"policy file missing support point {key}")
    return Policy(d=d[inverse])


def write_frontier_csv(path, points):
    dist_mod.write_csv(
        path,
        ["share", "quantile_a0", "quantile_a1", "diversity", "graduation", "on_frontier"],
        (
            (pt.share, pt.quantiles[0], pt.quantiles[1], pt.diversity, pt.graduation, pt.on_frontier)
            for pt in points
        ),
    )


def write_transitions_csv(path, dist):
    tables = {a: dist_mod.transition_matrix(dist, a) for a in dist.cf_mass}
    dist_mod.write_pair_table(path, dist, tables, "p")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _spec_for(kind, pol):
    omega = pol["omega"] if kind == "CPF" else None
    return FairnessSpec(kind=kind, omega=omega, grid_step=pol["grid_step"])


def _markov_report(dist, policy, tol=1e-9):
    mats = [dist_mod.transition_matrix(dist, a) for a in sorted(dist.cf_mass)]
    analysis = markov_mod.analyze(mats, tol=tol)
    report = markov_mod.check_pi_fair_structure(policy, analysis, tol=tol)
    return {
        "num_classes": report["num_classes"],
        "class_sizes": report["class_sizes"],
        "transient_count": report["transient_count"],
        "max_policy_deviation": report["max_policy_deviation"],
    }


def run(config, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    pol = config["policy"]
    b, lam = pol["b"], pol["lam"]
    population = config["output"]["population"]
    d_pi, d_all = simulate(config)

    definitions = {}
    policies = {}
    for kind in KINDS:
        target = d_all if kind == "CF" else d_pi
        result = solve_fair(target, _spec_for(kind, pol), lam=lam, b=b)
        entry = {"status": result.status}
        if result.status == "Optimal":
            diversity, graduation = evaluate_policy(result.policy, target)
            gap = dominance_gap(result.policy, target, b, pol["frontier_resolution"])
            entry.update(
                {
                    "objective": result.objective,
                    "diversity": diversity * population,
                    "graduation": graduation * population,
                    "dominance_gap": None if gap is None else [gap[0], gap[1]],
                    "residuals": result.residuals,
                }
            )
            if result.grid_point is not None:
                entry["grid_point"] = list(result.grid_point)
            policies[kind] = result.policy
        definitions[kind] = entry

    points = frontier(d_pi, b, pol["frontier_resolution"])
    write_frontier_csv(os.path.join(out_dir, "frontier.csv"), points)

    export_kind = pol["kind"]
    export_policy = policies.get(export_kind, policies["none"])
    write_policy_csv(os.path.join(out_dir, "policy.csv"), d_pi, export_policy)
    write_transitions_csv(os.path.join(out_dir, "transitions.csv"), d_pi)

    psf_policy = policies.get("PSF", policies["none"])
    markov_summary = _markov_report(d_pi, psf_policy)

    _write_json(
        os.path.join(out_dir, "residuals.json"),
        residual_report(d_pi, export_policy, b, omega=pol["omega"]),
    )
    summary = {
        "config": config,
        "definitions": definitions,
        "markov": markov_summary,
        "frontier_points": len(points),
    }
    validate_summary(summary)
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def validate_summary(summary):
    try:
        import jsonschema
    except ImportError:  # validation is best-effort at runtime
        return
    schema = json.loads(
        resources.files("causalfair").joinpath("schemas/summary.schema.json").read_text()
    )
    jsonschema.validate(summary, schema)


def _cmd_simulate(config, out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    d_pi, _ = simulate(config)
    dist_mod.write_tables(
        d_pi, os.path.join(out_dir, "mass.csv"), os.path.join(out_dir, "cf.csv")
    )
    write_transitions_csv(os.path.join(out_dir, "transitions.csv"), d_pi)
    return 0


def _load_or_simulate(config, args):
    if getattr(args, "mass", None):
        return dist_mod.load_tables(args.mass, getattr(args, "cf", None))
    d_pi, _ = simulate(config)
    return d_pi


def _cmd_optimize(config, out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    pol = config["policy"]
    d = _load_or_simulate(config, args)
    result = solve_fair(d, _spec_for(pol["kind"], pol), lam=pol["lam"], b=pol["b"])
    if result.status != "Optimal":
        print(json.dumps({"status": result.status}, sort_keys=True))
        return 2
    write_policy_csv(os.path.join(out_dir, "policy.csv"), d, result.policy)
    _write_json(
        os.path.join(out_dir, "residuals.json"),
        residual_report(d, result.policy, pol["b"], omega=pol["omega"]),
    )
    print(json.dumps({"status": "Optimal", "objective": result.objective}, sort_keys=True))
    return 0


def _cmd_frontier(config, out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    pol = config["policy"]
    d = _load_or_simulate(config, args)
    points = frontier(d, pol["b"], pol["frontier_resolution"])
    write_frontier_csv(os.path.join(out_dir, "frontier.csv"), points)
    return 0


def _cmd_audit(config, out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    pol = config["policy"]
    d = _load_or_simulate(config, args)
    policy = read_policy_csv(args.policy, d)
    report = residual_report(d, policy, pol["b"], omega=pol["omega"])
    gap = dominance_gap(policy, d, pol["b"], pol["frontier_resolution"])
    payload = {
        "residuals": report,
        "dominance_gap": None if gap is None else [gap[0], gap[1]],
    }
    _write_json(os.path.join(out_dir, "residuals.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_markov(config, out_dir, args):
    os.makedirs(out_dir, exist_ok=True)
    d = _load_or_simulate(config, args)
    policy = (
        read_policy_csv(args.policy, d)
        if getattr(args, "policy", None)
        else Policy(d=np.full(d.n, config["policy"]["b"]))
    )
    payload = _markov_report(d, policy)
    _write_json(os.path.join(out_dir, "markov.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_beta_check(config, out_dir, args):
    grid = [round(0.05 * k, 10) for k in range(1, 21)]
    payload = prop4_check(args.mu0, args.mu1, args.v, grid)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_run(config, out_dir, args):
    run(config, out_dir)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="causalfair")
    parser.add_argument("--config", default=None, help="path to JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override simulation seed")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "optimize", "frontier", "audit", "markov", "run"):
        p = sub.add_parser(name)
        if name in ("optimize", "frontier", "audit", "markov"):
            p.add_argument("--mass", default=None, help="input mass table CSV")
            p.add_argument("--cf", default=None, help="input counterfactual table CSV")
        if name in ("audit", "markov"):
            p.add_argument("--policy", default=None, required=(name == "audit"))
    p = sub.add_parser("beta-check")
    p.add_argument("--mu0", type=float, required=True)
    p.add_argument("--mu1", type=float, required=True)
    p.add_argument("--v", type=float, required=True)

    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "optimize": _cmd_optimize,
        "frontier": _cmd_frontier,
        "audit": _cmd_audit,
        "markov": _cmd_markov,
        "beta-check": _cmd_beta_check,
        "run": _cmd_run,
    }
    try:
        overrides = {}
        if args.seed is not None:
            overrides[("simulation", "seed")] = args.seed
        config = load_config(args.config, overrides)
        out_dir = args.out or config["output"]["directory"]
        return handlers[args.command](config, out_dir, args)
    except CausalFairError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
