"""Every ``summary.json`` that ``causalfair run`` writes during the tests is
validated against the package's bundled schema; ``run`` itself does not
validate at run time."""

import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from causalfair import cli

SUMMARY_SCHEMA = json.loads(
    resources.files("causalfair").joinpath("schemas/summary.schema.json").read_text()
)


def _validate_summary(out_dir):
    jsonschema.validate(json.loads((Path(out_dir) / "summary.json").read_text()), SUMMARY_SCHEMA)


@pytest.fixture
def validate_summary():
    """``validate_summary(out_dir)`` checks a ``run`` that the autouse
    wrapper below cannot see, such as one in a subprocess."""
    return _validate_summary


@pytest.fixture(autouse=True)
def _validated_runs(monkeypatch):
    run = cli.run

    def validated(config, out_dir):
        summary = run(config, out_dir)
        _validate_summary(out_dir)
        return summary

    monkeypatch.setattr(cli, "run", validated)
