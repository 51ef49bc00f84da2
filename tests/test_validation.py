"""Campaign parameters are rejected at construction, before any model pass.

Each case is one bad parameter on top of a valid layer-wise campaign.  It
must raise ValidationError from CampaignSpec(...), from load_config (with
the config path in the message) and through `bitstorm campaign` (exit 2),
while golden_run and layer_caches fail the test if they are ever called.
"""

import pytest

import bitstorm.campaign as campaign_mod
import bitstorm.cli as cli_mod
import bitstorm.executor as executor_mod
from bitstorm.campaign import CampaignSpec, run_stochastic
from bitstorm.cli import EXIT_VALIDATION, main
from bitstorm.errors import ValidationError
from bitstorm.model_io import load_config, load_dataset, load_model, save_config
from bitstorm.toygen import generate

VALID = dict(mode="layer", targets=[2], probabilities=[0.0, 1.0], fault="bit_flip_random", trials=4,
             metric="golden_run", seed=7)

CASES = {
    "unknown fault": dict(fault="bogus"),
    "specific fault without bit": dict(fault="bit_flip_specific"),
    "specific bit 32": dict(fault="bit_flip_specific", bit=32),
    "bit with zero fault": dict(fault="zero", bit=3),
    "negative seed": dict(seed=-1),
    "seed 2**64": dict(seed=2**64),
    "fractional trials": dict(trials=2.5),
    "zero trials": dict(trials=0),
    "empty probabilities": dict(probabilities=[]),
    "probability 1.5": dict(probabilities=[1.5]),
    "unknown mode": dict(mode="bogus"),
    "unknown metric": dict(metric="bogus"),
    "zero budget": dict(budget=0),
    "cma_window 1": dict(cma_window=1),
    "zero cma_epsilon": dict(cma_epsilon=0),
    "negative cma_epsilon": dict(cma_epsilon=-1),
    "empty op targets": dict(mode="op", targets=[]),
    "unknown op kind": dict(mode="op", targets=["Conv"]),
    "negative layer target": dict(targets=[-1]),
    "repeated layer target": dict(targets=[3, 3]),
    "repeated op kind": dict(mode="op", targets=["Add", "Mul", "Add"]),
}


@pytest.fixture(autouse=True)
def no_model_pass(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a model pass ran before the parameters were checked")

    for module in (campaign_mod, cli_mod, executor_mod):
        for name in ("golden_run", "layer_caches"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toyws")
    generate(out, seed=7)
    return out


def _config(path, toy_dir, params):
    doc = {("target" if k == "targets" else k): v for k, v in params.items()}
    doc.update(model=str(toy_dir / "model.json"), dataset=str(toy_dir / "dataset"), out_dir="results")
    save_config(doc, path)
    return path


@pytest.mark.parametrize("bad", CASES.values(), ids=CASES.keys())
def test_campaign_spec_rejects(bad):
    with pytest.raises(ValidationError):
        CampaignSpec(**{**VALID, **bad})


@pytest.mark.parametrize("bad", CASES.values(), ids=CASES.keys())
def test_load_config_rejects_naming_path(bad, toy_dir, tmp_path):
    path = _config(tmp_path / "config.json", toy_dir, {**VALID, **bad})
    with pytest.raises(ValidationError, match="config.json"):
        load_config(path)


@pytest.mark.parametrize("bad", CASES.values(), ids=CASES.keys())
def test_cli_campaign_exits_2(bad, toy_dir, tmp_path, capsys):
    path = _config(tmp_path / "config.json", toy_dir, {**VALID, **bad})
    assert main(["campaign", "--config", str(path)]) == EXIT_VALIDATION
    assert "config.json" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


OVERRIDES = [
    ["campaign", "--trials", "0"],
    ["campaign", "--budget", "0"],
    ["campaign", "--seed", "-1"],
    ["cache", "--budget", "0"],
    ["cache", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", OVERRIDES, ids=" ".join)
def test_cli_overrides_exit_2(argv, toy_dir, tmp_path):
    path = _config(tmp_path / "config.json", toy_dir, VALID)
    assert main([argv[0], "--config", str(path), *argv[1:]]) == EXIT_VALIDATION
    assert not (tmp_path / "results").exists()


def test_op_target_absent_from_model_rejected(toy_dir, tmp_path, capsys):
    """The 12-layer toy CNN has no PReLU, so no Add micro-op to inject into."""
    params = {**VALID, "mode": "op", "targets": ["Add"]}
    model = load_model(toy_dir / "model.json")
    dataset = load_dataset(toy_dir / "dataset", class_count=model.class_count)
    with pytest.raises(ValidationError, match=r"\['Add'\] do not occur in the model"):
        run_stochastic(CampaignSpec(**params), model, dataset)
    path = _config(tmp_path / "config.json", toy_dir, params)
    assert main(["campaign", "--config", str(path)]) == EXIT_VALIDATION
    assert "do not occur in the model" in capsys.readouterr().err
