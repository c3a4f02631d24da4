"""Config parsing, defaults, and whole-list validation."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from gcontrast.artifacts import config_fingerprint
from gcontrast.config import ConfigError, RunConfig, dataset_size_errors, load_config, validate
from gcontrast.data import stratified_indices, train_val_split
from gcontrast.pipeline import resolve_dataset

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


@pytest.mark.parametrize("raw, value", [("1", True), ("Yes", True), ("ON", True),
                                        ("true", True), ("0", False), ("no", False),
                                        ("Off", False), ("FALSE", False)])
def test_boolean_spellings(tmp_path, raw, value):
    path = tmp_path / "run.ini"
    path.write_text(f"[eval]\nsupervised_reference = {raw}\n")
    assert load_config(path).eval.supervised_reference is value


def test_boolean_typo_reported(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[eval]\nsupervised_reference = ture\n")
    with pytest.raises(ConfigError, match="eval.supervised_reference: 'ture' is not"):
        load_config(bad)


def test_cifar_source_requires_path(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[dataset]\nsource = cifar10\n")
    with pytest.raises(ConfigError, match="dataset.path"):
        load_config(bad)


@pytest.mark.parametrize("size, channels, wrong", [(8, 3, "dataset.image_size"),
                                                   (32, 1, "dataset.channels")])
def test_cifar_source_requires_cifar_image_shape(tmp_path, size, channels, wrong):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[dataset]\nsource = cifar10\npath = batches\n"
                   f"image_size = {size}\nchannels = {channels}\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(bad)
    assert [e.split(":")[0] for e in excinfo.value.errors] == [wrong]


def test_repeated_tap_point_reported(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[eval]\ntap_points = P1, P1\n")
    with pytest.raises(ConfigError, match="eval.tap_points: an entry is repeated"):
        load_config(bad)


def test_empty_tap_points_reported(tmp_path):
    # no tap point would leave `probe` nothing to run and nothing to record
    bad = tmp_path / "bad.ini"
    bad.write_text("[eval]\ntap_points =\n")
    with pytest.raises(ConfigError) as excinfo:
        load_config(bad)
    assert excinfo.value.errors == ["eval.tap_points: need at least one of P1/P2/P3"]


def test_dataset_may_be_clustered_whole():
    # k and subset_size may each equal the image count they are checked against
    config = load_config(CONFIGS / "tiny.ini")
    config.cluster.k = config.dataset.subset_size = 128
    assert validate(config) == []
    config.dataset.subset_size = 127
    assert validate(config) == ["cluster.k: 128 exceeds the 127 images it clusters"]


def test_a_class_short_of_its_subset_share_names_subset_size():
    # a 24-image subset of 4 classes takes 6 from each
    config = load_config(CONFIGS / "tiny.ini")
    config.dataset.subset_size, config.cluster.k = 24, 4
    config.eval.finetune_fraction = 0.5
    assert dataset_size_errors(config, {0: 8, 1: 6, 2: 8, 3: 6}) == []
    assert dataset_size_errors(config, {0: 9, 1: 5, 2: 9, 3: 2}) == [
        "dataset.subset_size: 24 takes 6 images from class 1, which has only 5",
        "dataset.subset_size: 24 takes 6 images from class 3, which has only 2"]


def test_removed_mode_key_is_unknown(tmp_path):
    # the batching mode is chosen per command with --mode
    bad = tmp_path / "bad.ini"
    bad.write_text("[scheduler]\nmode = guided\n")
    with pytest.raises(ConfigError, match=r"^invalid config:\n  scheduler\.mode: unknown key$"):
        load_config(bad)


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, tuple):
        return value + value[:1]
    return value + "x"


def _fields(config):
    """(object, attribute, dotted name) for every field, sections walked."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from ((value, g.name, f"{f.name}.{g.name}") for g in dataclasses.fields(value))
        else:
            yield config, f.name, f.name


def test_config_hash_covers_every_field():
    base = config_fingerprint(RunConfig().to_dict())
    count = len(list(_fields(RunConfig())))
    for i in range(count):
        config = RunConfig()
        owner, name, dotted = list(_fields(config))[i]
        setattr(owner, name, _changed(getattr(owner, name)))
        assert config_fingerprint(config.to_dict()) != base, dotted
    assert count > len(dataclasses.fields(RunConfig))  # the sections were walked


def _splits_every_class(config):
    """Whether the pipeline's eval split and fine-tune subset, drawn for
    real, leave every class a validation, training and fine-tune image."""
    dataset = resolve_dataset(config)
    try:
        train, _ = train_val_split(dataset, config.eval.val_fraction, seed=0)
        stratified_indices(train.labels, config.eval.finetune_fraction, seed=0)
    except ValueError:
        return False
    return len(np.unique(train.labels)) == len(np.unique(dataset.labels))


def test_eval_fraction_errors_match_the_splits_the_pipeline_draws():
    outcomes = set()
    for classes, per_class, subset_size, val_fraction, finetune_fraction in itertools.product(
            (2, 3), (1, 2, 3, 5), (0, 3, 5, 7), (0.2, 0.5, 0.75), (0.1, 0.5, 1.0)):
        config = RunConfig()
        d, e = config.dataset, config.eval
        d.classes, d.per_class, d.subset_size, d.image_size = classes, per_class, subset_size, 4
        config.cluster.k = 1
        e.val_fraction, e.finetune_fraction = val_fraction, finetune_fraction
        errors = dataset_size_errors(config, dict.fromkeys(range(classes), per_class))
        if subset_size > classes * per_class:
            continue
        fits = not any(err.startswith("eval.") for err in errors)
        assert fits == _splits_every_class(config), (config.dataset, config.eval, errors)
        outcomes.add(fits)
    assert outcomes == {True, False}
