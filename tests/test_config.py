"""Config parsing, defaults, and whole-list validation."""

from pathlib import Path

import pytest

from gcontrast.artifacts import config_fingerprint
from gcontrast.config import ConfigError, RunConfig, load_config, validate

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_defaults_match_reference_hyperparameters():
    config = RunConfig()
    assert config.dae.sigma == 0.01
    assert config.dae.patience == 5
    assert config.cluster.k == 64
    assert config.scheduler.p == 64
    assert config.contrastive.temperature == 0.1
    assert config.contrastive.epochs == 15
    assert config.dae.epochs == 100


def test_load_tiny_config():
    config = load_config(CONFIGS / "tiny.ini")
    assert config.dataset.classes == 4
    assert config.dae.encoder_blocks == ((8, 3, 2), (16, 3, 2))
    assert config.contrastive.head_widths == (16, 12, 8)
    assert validate(config) == []


def test_load_desk_config_is_valid():
    config = load_config(CONFIGS / "desk.ini")
    assert validate(config) == []
    assert config.cluster.k == 64 and config.scheduler.p == 64


def test_missing_file_raises():
    with pytest.raises(ConfigError, match="not found"):
        load_config(CONFIGS / "nope.ini")


def test_validation_lists_every_violation(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("""
[run]
seed = 3
[dataset]
source = webscrape
classes = 1
[cluster]
k = 0
[contrastive]
temperature = -2
""")
    with pytest.raises(ConfigError) as excinfo:
        load_config(bad)
    message = str(excinfo.value)
    for fragment in ("dataset.source", "dataset.classes", "cluster.k",
                     "contrastive.temperature"):
        assert fragment in message


def test_unknown_section_reported(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(bad)


def test_unknown_keys_reported(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nseed = 1\nsede = 2\n[scheduler]\np = 8\nreshuffle_per_epoch = true\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(bad)
    assert excinfo.value.errors == ["run.sede: unknown key",
                                    "scheduler.reshuffle_per_epoch: unknown key"]


def test_bad_block_syntax_reported(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[dae]\nencoder_blocks = 32:3\n")
    with pytest.raises(ConfigError, match="dae.encoder_blocks"):
        load_config(bad)


def test_cifar_source_requires_path(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[dataset]\nsource = cifar10\n")
    with pytest.raises(ConfigError, match="dataset.path"):
        load_config(bad)


def test_config_hash_ignores_mode_but_not_seed():
    a, b, c = RunConfig(), RunConfig(), RunConfig()
    b.scheduler.mode = "random"
    c.seed = 99
    ha = config_fingerprint(a.to_dict())
    assert config_fingerprint(b.to_dict()) == ha
    assert config_fingerprint(c.to_dict()) != ha
