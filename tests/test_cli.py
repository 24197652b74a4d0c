import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalfair
from causalfair import cli, linprog, markov
from causalfair.dist import from_table, load_tables
from causalfair.errors import ConfigError
from causalfair.fairness import KINDS, solve_fair
from causalfair.scm import ADMISSIONS_CONSTANT_NAMES


GRID_STEPS = ("0.6", "0.7", "0.3", "0.15", "0", "1.5")  # 1/step not an integer, or out of (0, 1]
NUMBER_KEYS = (  # a JSON boolean is not a number here
    "simulation.bin_width", "simulation.score_lo", "simulation.score_hi",
    "policy.b", "policy.lam", "policy.grid_step", "output.population",
)
TYPOS = ("simulation.bin_widht", "policy.kinds", "output.dir")  # unknown keys in a block


def tiny_config(tmp_path, **policy):
    cfg = {
        "simulation": {"n": 4000, "seed": 1},
        "policy": {"frontier_resolution": 40, **policy},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_defaults(self):
        cfg = cli.load_config(None)
        assert cfg["policy"]["b"] == 0.5
        assert cfg["policy"]["lam"] == 0.25
        assert cfg["simulation"]["n"] == 100000
        assert cfg["simulation"]["seed"] == 1

    def test_unknown_block(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"plociy": {}}))
        with pytest.raises(ConfigError):
            cli.load_config(p)

    def test_invalid_budget(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"policy": {"b": 1.5}}))
        with pytest.raises(ConfigError):
            cli.load_config(p)

    @pytest.mark.parametrize("step", [0.1, 0.05, 0.02, 0.25, 0.01, 1.0])
    def test_grid_steps_that_divide_one_load(self, step):
        assert cli.load_config(None, {("policy", "grid_step"): step})["policy"]["grid_step"] == step

    def test_seed_override(self, tmp_path):
        p = tiny_config(tmp_path)
        cfg = cli.load_config(p, {("simulation", "seed"): 99})
        assert cfg["simulation"]["seed"] == 99

    def test_seed_bounds(self, tmp_path, capsys):
        # Philox takes keys below 2**128 and the key is seed << 32 ^ node.
        args = ["--config", str(tiny_config(tmp_path)), "--out", str(tmp_path / "s"), "--seed"]
        assert cli.main([*args, str(2**96 - 1), "simulate"]) == 0
        assert cli.main([*args, str(2**96), "simulate"]) == 1
        assert "simulation.seed must be an integer" in json.loads(capsys.readouterr().err)["message"]


class TestReadPolicyCsv:
    @staticmethod
    def _dist():
        return from_table([(0, 10, 0, 1, 0.25), (0, 12, 1, 1, 0.25), (1, 10, 0, 0, 0.5)])

    def test_shuffled_rows(self, tmp_path):
        # Shuffled rows, one for a point outside the support (ignored) and two
        # for the point (0, 12), of which the last wins.
        path = tmp_path / "pol.csv"
        path.write_text("group,bin,d\n1,10,0.75\n0,12,0.5\n0,99,1.0\n0,10,0.1\n0,12,0.25\n")
        np.testing.assert_array_equal(cli.read_policy_csv(path, self._dist()).d, [0.1, 0.25, 0.75])

    @pytest.mark.parametrize("body", ["1,10,0.75\n0,10,0.1\n", ""], ids=["one-point", "header-only"])
    def test_missing_point(self, tmp_path, body):
        path = tmp_path / "pol.csv"
        path.write_text("group,bin,d\n" + body)
        missing = "(0, 12)" if body else "(0, 10)"
        with pytest.raises(ConfigError, match=f"missing support point {re.escape(missing)}"):
            cli.read_policy_csv(path, self._dist())


def declarative_block():
    return {
        "nodes": [
            {"name": "A", "parents": [], "exogenous": "uniform-0-1",
             "equation": {"form": "group-threshold", "threshold": 0.5}},
            {"name": "S", "parents": ["A"], "exogenous": "standard-normal",
             "equation": {"form": "linear", "intercept": 10.0,
                          "coeffs": {"A": 2.0}, "noise_scale": 3.0}},
            {"name": "D", "parents": ["A", "S"], "exogenous": "uniform-0-1",
             "equation": {"form": "decision"}},
            {"name": "Y", "parents": ["S", "D"], "exogenous": "uniform-0-1",
             "equation": {"form": "logistic-threshold", "coeffs": {"S": 0.1},
                          "decision_coeff": 1.0}},
        ],
        "group_node": "A",
        "decision_node": "D",
        "decision_parents": ["A", "S"],
        "outcome_node": "Y",
        "paths": [["A", "S", "D"]],
    }


def _second_score(block):
    block["nodes"].insert(2, {"name": "R", "parents": ["A"], "equation": {"form": "linear"}})
    block["nodes"][3]["parents"].append("R")
    block["decision_parents"].append("R")


class TestCustomScm:
    def test_declarative_model(self):
        block = declarative_block()
        model = cli.build_scm(block)
        assert model.dag.nodes == ("A", "S", "D", "Y")
        pi = cli.path_set(model, block)
        assert pi.paths == (("A", "S", "D"),)

    @pytest.mark.parametrize(
        "edit, error, expected",
        [
            (lambda b: b["nodes"][1]["equation"].update(form="quadratic"), "ConfigError", "unknown equation form"),
            (lambda b: b["nodes"][1].update(exogenous="cauchy"), "ConfigError", "unknown exogenous kind"),
            (lambda b: b["nodes"][1]["equation"].update(slope=1.0), "ConfigError", "unknown equation key 'slope'"),
            (lambda b: b["nodes"][1].pop("equation"), "ConfigError", "missing key 'equation'"),
            (lambda b: b.pop("group_node"), "ConfigError", "missing key 'group_node'"),
            (lambda b: b.update(group_node="Z"), "UnknownNodeError", "role node 'Z'"),
            (_second_score, "ConfigError", "exactly one non-group decision parent"),
            (lambda b: b["nodes"][1]["equation"]["coeffs"].update(Q=1.0), "UnknownNodeError", "reads 'Q'"),
            (lambda b: b["nodes"][0]["equation"].update(threshold="half"), "ConfigError", "wrong type"),
            (lambda b: b["nodes"][1]["equation"].update(interactions=[["A", "A", 1.0]]), "ConfigError",
             "interactions need the linear-interaction form"),
            (lambda b: b["nodes"][0]["equation"].update(form="linear"), "ConfigError", "group-threshold form"),
            (lambda b: b["nodes"][1]["equation"].update(form="decision"), "ConfigError", "decision form"),
            (lambda b: b.update(groups=["a0", "a1", "a2"]), "ConfigError", "unknown scm key 'groups'"),
            (lambda b: b.pop("nodes"), "ConfigError", "unknown scm key 'decision_node'"),
            (lambda b: [b.clear(), b.update(constants=dict.fromkeys(ADMISSIONS_CONSTANT_NAMES, 1.0) | {"mu_A": "third"})],
             "ConfigError", "wrong type"),
        ],
        ids=[
            "unknown-form", "unknown-exogenous", "unknown-equation-key", "missing-equation",
            "missing-group-node", "role-not-in-dag", "two-score-parents", "coeff-non-parent",
            "string-threshold", "linear-interactions", "linear-group-node", "second-decision-form",
            "groups-key", "roles-without-nodes", "string-constant",
        ],
    )
    def test_bad_scm_block_is_structured(self, tmp_path, capsys, edit, error, expected):
        block = declarative_block()
        edit(block)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scm": block, "simulation": {"n": 2000}}))
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error and expected in err["message"]

    @pytest.mark.parametrize(
        "paths, error, expected",
        [
            (5, "ConfigError", "scm.paths must be"),
            (None, "ConfigError", "scm.paths must be"),
            ("AD", "ConfigError", "scm.paths must be"),
            (["A", "E", "T", "D"], "ConfigError", "scm.paths must be"),
            ([["A", 5, "D"]], "ConfigError", "scm.paths must be"),
            ([[]], "ConfigError", "must run from group node 'A'"),
            ([["E", "T"]], "ConfigError", "must run from group node 'A'"),
            ([["A", "E", "T"]], "ConfigError", "to decision node 'D'"),
            ([["A", "Z", "D"]], "UnknownNodeError", "path node 'Z'"),
            ([["A", "E", "T", "D"], ["A", "T", "D"]], "UnknownNodeError", "('A', 'T') is not a DAG edge"),
        ],
        ids=[
            "number", "null", "string", "flat-list", "non-string-node", "empty-path",
            "not-from-group", "not-to-decision", "unknown-node", "non-edge",
        ],
    )
    def test_bad_paths_are_structured(self, tmp_path, capsys, paths, error, expected):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scm": {"paths": paths}, "simulation": {"n": 2000}}))
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error and expected in err["message"]
        assert not (tmp_path / "o" / "mass.csv").exists()

    @pytest.mark.parametrize("paths", ["all", [["A", "D"], ["A", "E", "T", "D"]], []])
    def test_good_paths_run(self, tmp_path, paths):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"scm": {"paths": paths}, "simulation": {"n": 2000}}))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"]) == 0

    def test_default_is_admissions(self):
        model = cli.build_scm({"constants": {}})
        assert model.dag.nodes == ("A", "E", "M", "T", "D", "Y")


class TestSubcommands:
    def test_run_outputs(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        for name in ("policy.csv", "frontier.csv", "summary.json", "transitions.csv", "residuals.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["definitions"]) == set(KINDS)

    def test_run_analyzes_each_swap_chain_once(self, tmp_path, monkeypatch):
        # CF's solve analyzes d_all's chain and PSF's d_pi's; the summary's
        # markov block reuses PSF's analysis instead of making a third.
        real = markov.analyze
        calls = []
        monkeypatch.setattr(markov, "analyze", lambda *a, **k: calls.append(a) or real(*a, **k))
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        assert len(calls) == 2
        monkeypatch.setattr(markov, "analyze", real)
        config = cli.load_config(cfg)
        d_pi, _ = cli.simulate(config)
        pol = config["policy"]
        psf = solve_fair(d_pi, cli._spec_for("PSF", pol), lam=pol["lam"], b=pol["b"])
        fresh = json.loads(json.dumps(cli._markov_report(d_pi, psf.policy)))
        assert json.loads((out / "summary.json").read_text())["markov"] == fresh

    def test_run_deterministic(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        cli.main(["--config", str(cfg), "--out", str(out1), "run"])
        cli.main(["--config", str(cfg), "--out", str(out2), "run"])
        for name in ("policy.csv", "frontier.csv", "summary.json", "transitions.csv", "residuals.json"):
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, name

    def test_summary_schema(self, tmp_path, validate_summary):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        validate_summary(out)

    def test_simulate_then_optimize(self, tmp_path):
        cfg = tiny_config(tmp_path, kind="CEO")
        sim_out = tmp_path / "sim"
        cli.main(["--config", str(cfg), "--out", str(sim_out), "simulate"])
        assert (sim_out / "mass.csv").exists()
        opt_out = tmp_path / "opt"
        rc = cli.main(
            [
                "--config", str(cfg), "--out", str(opt_out), "optimize",
                "--mass", str(sim_out / "mass.csv"), "--cf", str(sim_out / "cf.csv"),
            ]
        )
        assert rc == 0
        assert (opt_out / "policy.csv").exists()
        residuals = json.loads((opt_out / "residuals.json").read_text())
        ceo = next(e for e in residuals if e["definition"] == "CEO")
        assert ceo["max_residual"] <= 1e-9

    def test_frontier_subcommand(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "f"
        assert cli.main(["--config", str(cfg), "--out", str(out), "frontier"]) == 0
        lines = (out / "frontier.csv").read_text().strip().splitlines()
        assert lines[0] == "share,quantile_a0,quantile_a1,diversity,graduation,on_frontier"
        assert len(lines) == 42  # header + resolution + 1 points

    def test_audit_constant_policy(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        sim_out = tmp_path / "sim"
        cli.main(["--config", str(cfg), "--out", str(sim_out), "simulate"])
        # Build a constant-0.5 policy file over the simulated support.
        d = load_tables(sim_out / "mass.csv", sim_out / "cf.csv")
        pol_path = tmp_path / "pol.csv"
        with open(pol_path, "w") as fh:
            fh.write("group,bin,d\n")
            for g, b in zip(d.group, d.bin):
                fh.write(f"{int(g)},{int(b)},0.5\n")
        out = tmp_path / "audit"
        rc = cli.main(
            [
                "--config", str(cfg), "--out", str(out), "audit",
                "--mass", str(sim_out / "mass.csv"), "--cf", str(sim_out / "cf.csv"),
                "--policy", str(pol_path),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "residuals.json").read_text())
        for entry in payload["residuals"]:
            assert entry["max_residual"] <= 1e-12
        assert payload["dominance_gap"] is not None

    def test_markov_subcommand(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "m"
        assert cli.main(["--config", str(cfg), "--out", str(out), "markov"]) == 0
        payload = json.loads((out / "markov.json").read_text())
        assert payload["num_classes"] >= 1
        assert payload["max_policy_deviation"] <= 1e-12  # constant policy

    def test_beta_check(self, capsys):
        rc = cli.main(["beta-check", "--mu0", "0.6", "--mu1", "0.4", "--v", "10"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_positive"]
        assert payload["min_gap"] > 0

    def test_structured_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"policy": {"b": -1}}))
        rc = cli.main(["--config", str(p), "run"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "body, expected",
        [
            (None, "cannot read policy file"),
            ("group,bin,d\n0,50,0.5\n1,50,high\n", "row 2"),
            ("group,bin,d\n0,50,1.5\n", "outside [0, 1]"),
            ("group,bin,d\n0,100000000000000000000,0.5\n", "row 1"),
        ],
        ids=["missing-file", "non-numeric-d", "d-above-one", "bin-past-int64"],
    )
    @pytest.mark.parametrize("command", ["audit", "markov"])
    def test_bad_policy_file_is_structured(self, tmp_path, capsys, command, body, expected):
        pol_path = tmp_path / "pol.csv"
        if body is not None:
            pol_path.write_text(body)
        cfg = tiny_config(tmp_path)
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), command, "--policy", str(pol_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert str(pol_path) in err["message"] and expected in err["message"]

    @pytest.mark.parametrize(
        "table, body, error, expected",
        [
            ("mass.csv", None, "ConfigError", "cannot read mass table"),
            ("mass.csv", "group,bin,y0,y1,mass\n0,50,0,1,0.5\nx,50,0,1,0.5\n", "ConfigError", "row 2"),
            ("mass.csv", "group,bin,y0,y1,mass\n0,50,0,7,0.5\n", "DomainError", "outcome value 7"),
            ("mass.csv", "group,bin,y0,y1,mass\n0,50,2,1,0.5\n", "DomainError", "outcome value 2 "),
            ("mass.csv", "group,bin,y0,y1,mass\n0,50,0,-1,0.5\n", "DomainError", "outcome value -1 "),
            ("mass.csv", "group,bin,y0,y1,mass\n0,50,0,0.5,0.5\n", "ConfigError", "row 1"),
            ("cf.csv", "aprime,i_group,i_bin,j_group,j_bin,mass\n1,0,50,1,51\n", "ConfigError", "row 1"),
            ("mass.csv", "group,bin,y0,y1,mass\n0,50,0,1,0.5\n0,51,0,1,nan\n", "ConfigError", "row 2"),
            ("cf.csv", "aprime,i_group,i_bin,j_group,j_bin,mass\n1,0,50,1,51,inf\n", "ConfigError", "row 1"),
            ("mass.csv", "group,bin,y0,y1,mass\n0,9223372036854775808,0,1,0.5\n", "ConfigError", "row 1"),
        ],
        ids=[
            "missing-mass", "non-integer-group", "unknown-outcome", "outcome-two",
            "outcome-minus-one", "outcome-half", "short-cf-row",
            "nan-mass", "inf-cf-mass", "bin-past-int64",
        ],
    )
    def test_bad_table_is_structured(self, tmp_path, capsys, table, body, error, expected):
        cfg = tiny_config(tmp_path)
        sim = tmp_path / "sim"
        cli.main(["--config", str(cfg), "--out", str(sim), "simulate"])
        capsys.readouterr()
        if body is None:
            (sim / table).unlink()
        else:
            (sim / table).write_text(body)
        tables = ["--mass", str(sim / "mass.csv"), "--cf", str(sim / "cf.csv")]
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "optimize", *tables])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error and expected in err["message"]
        if error == "ConfigError":
            assert str(sim / table) in err["message"]

    @pytest.mark.parametrize(
        "body, expected",
        [
            (None, "cannot read config file"),
            ("{not json", "cannot read config file"),
            ("[1, 2]", "must hold a JSON object"),
            ('{"simulation": {"bin_width": 0}}', "bin_width must be positive"),
            ('{"simulation": {"score_lo": 5, "score_hi": 5}}', "score_lo must be below"),
            ('{"policy": {"b": "half"}}', "wrong type"),
            ('{"policy": {"frontier_resolution": "x"}}', "frontier_resolution must be an integer"),
            ('{"policy": {"frontier_resolution": 1}}', "frontier_resolution must be an integer"),
            ('{"policy": {"frontier_resolution": 2.5}}', "frontier_resolution must be an integer"),
            ('{"simulation": {"n": 1.5}}', "simulation.n must be an integer"),
            ('{"simulation": {"seed": "x"}}', "simulation.seed must be an integer"),
            ('{"simulation": {"seed": -1}}', "simulation.seed must be an integer"),
            ('{"simulation": {"seed": 1.5}}', "simulation.seed must be an integer"),
            ('{"simulation": {"seed": %d}}' % 2**96, "simulation.seed must be an integer"),
            # Rounding 1/step would run 0.6 on the 0.5 lattice and 0.7 on the 1.0 one.
            *(('{"policy": {"grid_step": %s}}' % step, "policy.grid_step must") for step in GRID_STEPS),
            *(('{"%s": {"%s": true}}' % tuple(k.split(".")), f"{k} must be a number") for k in NUMBER_KEYS),
            ('{"policy": {"lam": true}, "output": {"population": true}}', "policy.lam must be a number"),
            *(
                ('{"%s": {"%s": 0.5}}' % (b, k), f"unknown config key {k!r} in block {b!r}")
                for b, k in (t.split(".") for t in TYPOS)
            ),
            ('{"output": {"directory": 5}}', "output.directory must be a string"),
            ('{"policy": {"lam": 1e309}}', "policy.lam must be a finite number"),
            ('{"policy": {"lam": NaN}}', "config value NaN is not a finite number"),
            ('{"policy": {"b": Infinity}}', "config value Infinity is not a finite number"),
            ('{"simulation": {"score_lo": -Infinity}}', "config value -Infinity is not a finite number"),
            ('{"output": {"population": 1e309}}', "output.population must be a finite number"),
            ('{"output": {"population": 1%s}}' % ("0" * 400), "output.population must be a finite number"),
            ('{"simulation": {"score_hi": 1e309}}', "simulation.score_hi must be a finite number"),
            ('{"simulation": {"bin_width": 1e-300}}', "at most 2**24 bins"),
            ('{"simulation": {"score_lo": -1e308, "score_hi": 1e308}}', "at most 2**24 bins"),
            ('{"simulation": {"bin_width": 0.5, "score_hi": %d}}' % (2**23 + 1), "at most 2**24 bins"),
            ('{"scm": {"constants": {"zz": 1}}}', "unknown scm constant 'zz'"),
            (
                '{"scm": {"constants": %s}}'
                % json.dumps(dict.fromkeys(ADMISSIONS_CONSTANT_NAMES, 1.0)).replace("1.0", "1e309", 1),
                "inf is not a finite number",
            ),
        ],
        ids=[
            "missing", "malformed", "not-object", "zero-width", "empty-range", "string-budget",
            "string-resolution", "resolution-one", "fractional-resolution", "fractional-n",
            "string-seed", "negative-seed", "fractional-seed", "seed-2**96",
            *(f"grid-step-{step}" for step in GRID_STEPS),
            *(f"bool-{k}" for k in NUMBER_KEYS), "bool-lam-and-population",
            *(f"typo-{k}" for k in TYPOS), "number-directory",
            "overflow-lam", "nan-lam", "infinity-budget", "minus-infinity-lo", "overflow-population",
            "huge-int-population", "overflow-score-hi", "tiny-width", "overflowing-range",
            "bins-past-2**24", "unknown-constant", "overflow-constant",
        ],
    )
    def test_bad_config_is_structured(self, tmp_path, capsys, body, expected):
        path = tmp_path / "c.json"
        if body is not None:
            path.write_text(body)
        rc = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "run"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and expected in err["message"]

    def test_json_output_refuses_non_finite_numbers(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_json(tmp_path / "x.json", {"objective": float("nan")})

    @staticmethod
    def _run_without_cf(tmp_path, capsys, kind, command):
        cfg = tiny_config(tmp_path, kind=kind)
        sim = tmp_path / "sim"
        cli.main(["--config", str(cfg), "--out", str(sim), "simulate"])
        d = load_tables(sim / "mass.csv")
        pol_path = tmp_path / "pol.csv"
        rows = "".join(f"{g},{b},0.5\n" for g, b in zip(d.group, d.bin))
        pol_path.write_text("group,bin,d\n" + rows)
        policy = ["--policy", str(pol_path)] if command == "audit" else []
        capsys.readouterr()
        mass = ["--mass", str(sim / "mass.csv")]
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), command, *mass, *policy])
        return rc, capsys.readouterr()

    @pytest.mark.parametrize("kind,command", [("PSF", "optimize"), ("CF", "optimize"), ("CEO", "markov")])
    def test_tables_without_counterfactuals_fail(self, tmp_path, capsys, kind, command):
        # PSF/CF rows and the transition chain need cf.csv; without it they
        # must fail rather than report an unconstrained optimum.
        rc, captured = self._run_without_cf(tmp_path, capsys, kind, command)
        assert rc == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "EmptyInputError"

    @pytest.mark.parametrize("kind,command", [("CEO", "optimize"), ("CPP", "optimize"), ("PSF", "audit")])
    def test_tables_without_counterfactuals_pass(self, tmp_path, capsys, kind, command):
        # The other kinds' LPs and the audit never need cf.csv: they succeed,
        # and the residual report leaves out the PSF entry it cannot compute.
        rc, captured = self._run_without_cf(tmp_path, capsys, kind, command)
        assert rc == 0, captured.err
        assert captured.err == ""
        payload = json.loads((tmp_path / "o" / "residuals.json").read_text())
        report = payload["residuals"] if command == "audit" else payload
        assert [r["definition"] for r in report] == ["CEO", "CPF", "EO", "budget"]
        if command == "optimize":
            assert (tmp_path / "o" / "policy.csv").exists()

    def test_tiny_n_smoke(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps({"simulation": {"n": 10, "seed": 3}, "policy": {"frontier_resolution": 5}})
        )
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg_path), "--out", str(out), "run"]) == 0

    def test_solver_failure_is_structured(self, tmp_path, capsys, monkeypatch):
        # A simplex that returns a point off its bounds must be caught by the
        # solver's check and reported as JSON, not as a traceback.
        real = linprog._run_simplex

        def drifting(T, x, *args):
            real(T, x, *args)
            x += 1e-6

        monkeypatch.setattr(linprog, "_run_simplex", drifting)
        rc = cli.main(["--config", str(tiny_config(tmp_path)), "--out", str(tmp_path / "o"), "run"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SolverError"
        assert "violates" in err["message"]

    def test_run_does_not_import_scipy(self, tmp_path, validate_summary):
        # scipy.optimize alone adds about 49 MB of peak memory to a run.
        cfg = tiny_config(tmp_path)
        script = (
            "import sys; from causalfair import cli; "
            f"assert cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}, 'run']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(causalfair.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        validate_summary(tmp_path / "o")
