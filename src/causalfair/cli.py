"""JSON-configured command line interface.

The ``run`` subcommand executes the full experiment pipeline: simulate the
model, bin the draws, optimize a policy per fairness definition, sweep the
frontier, measure dominance gaps, and analyze the counterfactual transition
chain. The other subcommands run single stages on config plus optional input
CSVs. All outputs are deterministic given the config bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import dist as dist_mod
from . import markov as markov_mod
from . import scm as scm_mod
from .betafair import prop4_check
from .errors import CausalFairError, ConfigError, UnknownNodeError
from .fairness import KINDS, FairnessSpec, lattice_divisions, residual_report, solve_fair
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
                raw = json.load(fh, parse_constant=_reject_constant)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    config = {}
    for block, defaults in _DEFAULTS.items():
        user = raw.get(block, {})
        if not isinstance(user, dict):
            raise ConfigError(f"config block {block!r} must be an object")
        unknown = sorted(set(user) - set(defaults))
        if unknown and block != "scm":  # build_scm checks the scm block's keys
            raise ConfigError(f"unknown config key {unknown[0]!r} in block {block!r}")
        merged = dict(defaults)
        merged.update(user)
        config[block] = merged
    for block in raw:
        if block not in _DEFAULTS:
            raise ConfigError(f"unknown config block {block!r}")
    if overrides:
        for (block, key), value in overrides.items():
            config[block][key] = value
    _validate(config)
    return config


def _reject_constant(name):
    raise ConfigError(f"config value {name} is not a finite number")


_NUMBERS = {
    "simulation": ("bin_width", "score_lo", "score_hi"),
    "policy": ("b", "lam", "grid_step"),
    "output": ("population",),
}


def _validate(config):
    pol = config["policy"]
    sim = config["simulation"]
    for block, keys in _NUMBERS.items():
        for key in keys:
            value = config[block][key]
            if type(value) not in (int, float):  # a bool is not a number
                raise ConfigError(f"config value of the wrong type: {block}.{key} must be a number")
            if not abs(value) <= sys.float_info.max:  # NaN, infinite or an int past the float range
                raise ConfigError(f"{block}.{key} must be a finite number")
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
    if (float(sim["score_hi"]) - sim["score_lo"]) / sim["bin_width"] > dist_mod.MAX_CELLS:
        raise ConfigError("simulation.bin_width must leave at most 2**24 bins in [score_lo, score_hi]")
    if pol["kind"] not in KINDS:
        raise ConfigError(f"policy.kind must be one of {KINDS}")
    if pol["omega"] not in ("constant", "identity"):
        raise ConfigError("policy.omega must be 'constant' or 'identity'")
    if lattice_divisions(pol["grid_step"]) is None:
        raise ConfigError("policy.grid_step must lie in (0, 1] and 1/grid_step must be an integer")
    if not _is_int(pol["frontier_resolution"], 2):
        raise ConfigError("policy.frontier_resolution must be an integer of at least 2")
    if config["output"]["population"] <= 0:
        raise ConfigError("output.population must be positive")
    if not isinstance(config["output"]["directory"], str):
        raise ConfigError("output.directory must be a string")


def _is_int(value, lo, hi=None) -> bool:
    """``value`` is an int (not a bool) with lo <= value, and value < hi if given."""
    return type(value) is int and lo <= value and (hi is None or value < hi)


_ROLE_KEYS = ("group_node", "decision_node", "decision_parents", "outcome_node")
_SCM_KEYS = ("constants", "paths")
_EQUATION_KEYS = {f.name for f in dataclasses.fields(scm_mod.Equation)}


def build_scm(scm_block):
    """Admissions model by default; a declarative node list otherwise. A
    malformed block raises ``ConfigError``, or ``UnknownNodeError`` for a name."""
    declared = "nodes" in scm_block
    unknown = sorted(set(scm_block) - {*_SCM_KEYS, *(("nodes", *_ROLE_KEYS) if declared else ())})
    if unknown:
        raise ConfigError(f"unknown scm key {unknown[0]!r}")
    try:
        if not declared:
            constants = {k: _number(v) for k, v in (scm_block.get("constants") or {}).items()}
            return scm_mod.admissions_scm(constants or None)
        nodes = [(spec["name"], spec) for spec in scm_block["nodes"]]
        parents = {name: tuple(spec.get("parents", ())) for name, spec in nodes}
        equations = {name: _equation(spec["equation"]) for name, spec in nodes}
        exogenous = {name: spec.get("exogenous", "uniform-0-1") for name, spec in nodes}
        roles = {key: scm_block[key] for key in _ROLE_KEYS}
        roles["decision_parents"] = tuple(roles["decision_parents"])
    except KeyError as exc:
        raise ConfigError(f"scm block is missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"scm block value of the wrong type: {exc}") from exc
    dag = scm_mod.CausalDag(nodes=tuple(name for name, _ in nodes), parents=parents)
    return scm_mod.Scm(dag=dag, equations=equations, exogenous=exogenous, **roles)


def _equation(spec):
    eq = dict(spec)
    unknown = sorted(set(eq) - _EQUATION_KEYS)
    if unknown:
        raise ConfigError(f"unknown equation key {unknown[0]!r}")
    for key in ("threshold", "intercept", "noise_scale", "decision_coeff"):
        if key in eq:
            eq[key] = _number(eq[key])
    eq["coeffs"] = {p: _number(c) for p, c in eq.get("coeffs", {}).items()}
    eq["interactions"] = tuple((p1, p2, _number(c)) for p1, p2, c in eq.get("interactions", ()))
    return scm_mod.Equation(form=eq.pop("form"), **eq)


def _number(value):
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def path_set(scm, scm_block):
    """The configured paths: "all", or a list of node-name lists, each running
    from the group node to the decision node along DAG edges. Any other value
    raises ``ConfigError``; a name or a step off the DAG, ``UnknownNodeError``."""
    paths = scm_block["paths"]
    if paths == "all":
        return scm_mod.all_paths(scm)
    if not isinstance(paths, list) or not all(
        isinstance(p, list) and all(isinstance(v, str) for v in p) for p in paths
    ):
        raise ConfigError('scm.paths must be "all" or a list of lists of node names')
    for path in paths:
        unknown = [v for v in path if v not in scm.dag.nodes]
        if unknown:
            raise UnknownNodeError(f"path node {unknown[0]!r} is not in the DAG")
        if path[:1] != [scm.group_node] or path[-1:] != [scm.decision_node]:
            raise ConfigError(
                f"path {path} must run from group node {scm.group_node!r}"
                f" to decision node {scm.decision_node!r}"
            )
    pi = scm_mod.PathSet(paths=tuple(tuple(p) for p in paths))
    pi.edge_set(scm.dag)  # a step that is not an edge raises UnknownNodeError
    return pi


def simulate(config):
    """Draw worlds and bin them; returns (psf dist, cf dist).

    The first distribution carries counterfactual masses for the configured
    path collection, the second for all group-to-decision paths.
    """
    model = build_scm(config["scm"])
    pi = path_set(model, config["scm"])
    sim = config["simulation"]
    binning = dist_mod.Binning(width=sim["bin_width"], lo=sim["score_lo"], hi=sim["score_hi"])
    targets = [0, 1]
    sample = scm_mod.draw_worlds(model, pi, targets, n=sim["n"], seed=sim["seed"])
    d_pi = dist_mod.discretize(model, sample, binning)
    scm_mod.add_counterfactuals(model, sample, scm_mod.all_paths(model), targets)
    d_all = dist_mod.discretize(model, sample, binning)
    return d_pi, d_all


def write_policy_csv(path, dist, policy):
    dist_mod.write_csv(path, ["group", "bin", "d"], (dist.group, dist.bin, policy.d))


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


def write_frontier_csv(path, front):
    names = [f.name for f in dataclasses.fields(front)]
    dist_mod.write_csv(path, names, [getattr(front, name) for name in names])


def write_transitions_csv(path, dist):
    tables = {a: dist_mod.transition_matrix(dist, a) for a in dist.cf_mass}
    dist_mod.write_pair_table(path, dist, tables, "p")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _spec_for(kind, pol):
    """The spec of ``kind``; ``policy.omega`` applies to CPF only."""
    omega = pol["omega"] if kind == "CPF" else None
    return FairnessSpec(kind=kind, omega=omega, grid_step=pol["grid_step"])


def _markov_report(dist, policy, analysis=None):
    """The summary's ``markov`` block; ``analysis`` is ``markov.analyze`` of
    the swap chain of ``dist`` when the caller already has it."""
    if analysis is None:
        mats = [dist_mod.transition_matrix(dist, a) for a in sorted(dist.cf_mass)]
        analysis = markov_mod.analyze(mats)
    report = markov_mod.check_pi_fair_structure(policy, analysis)
    keys = ("num_classes", "class_sizes", "transient_count", "max_policy_deviation")
    return {key: report[key] for key in keys}


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
        if kind == "PSF":
            psf_chain = result.chain  # d_pi's swap chain, when the solve analyzed it
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

    front = frontier(d_pi, b, pol["frontier_resolution"])
    write_frontier_csv(os.path.join(out_dir, "frontier.csv"), front)

    export_kind = pol["kind"]
    export_policy = policies.get(export_kind, policies["none"])
    write_policy_csv(os.path.join(out_dir, "policy.csv"), d_pi, export_policy)
    write_transitions_csv(os.path.join(out_dir, "transitions.csv"), d_pi)

    psf_policy = policies.get("PSF", policies["none"])
    markov_summary = _markov_report(d_pi, psf_policy, analysis=psf_chain)

    _write_json(
        os.path.join(out_dir, "residuals.json"),
        residual_report(d_pi, export_policy, b, omega=pol["omega"]),
    )
    summary = {
        "config": config,
        "definitions": definitions,
        "markov": markov_summary,
        "frontier_points": len(front.share),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


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
    front = frontier(d, pol["b"], pol["frontier_resolution"])
    write_frontier_csv(os.path.join(out_dir, "frontier.csv"), front)
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
