"""Run configuration: INI file parsing, validation, canonical dict form.

Defaults follow the reference hyperparameters wherever one exists
(sigma 0.01, patience 5, k 64, p 64, temperature 0.1, 15 contrastive
epochs); everything else is an artifact default documented in README.
"""

import configparser
from dataclasses import asdict, dataclass, field

from .dae import AutoencoderSpec
from .data import stratified_count, subset_class_sizes


class ConfigError(ValueError):
    """Invalid configuration; message lists every violated field."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


def _parse_blocks(text):
    """'32:3:2, 64:3:2' -> ((32,3,2), (64,3,2))."""
    blocks = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"block {chunk!r} must be filters:kernel:stride")
        blocks.append(tuple(int(p) for p in parts))
    if not blocks:
        raise ValueError("need at least one block")
    return tuple(blocks)


@dataclass
class DatasetSection:
    source: str = "synthetic"
    path: str = ""
    subset_size: int = 0          # 0 = use the full dataset
    classes: int = 10
    per_class: int = 100
    image_size: int = 32
    channels: int = 3
    noise_sigma: float = 0.08     # synthetic generator pixel noise


@dataclass
class DaeSection:
    encoder_blocks: tuple = ((32, 3, 2), (64, 3, 2), (128, 3, 2))
    sigma: float = 0.01
    epochs: int = 100
    patience: int = 5
    val_fraction: float = 0.1
    batch_size: int = 64
    adam_lr: float = 1e-3


@dataclass
class ClusterSection:
    k: int = 64
    tol: float = 1e-4
    max_iter: int = 300


@dataclass
class SchedulerSection:
    p: int = 64


@dataclass
class ContrastiveSection:
    temperature: float = 0.1
    epochs: int = 15
    base_lr: float = 0.05
    encoder_blocks: tuple = ((32, 3, 2), (64, 3, 2), (128, 3, 2), (256, 3, 2))
    head_widths: tuple = (256, 128, 64)


@dataclass
class EvalSection:
    tap_points: tuple = ("P1", "P2", "P3")
    finetune_fraction: float = 0.10
    val_fraction: float = 0.2
    probe_epochs: int = 50
    patience: int = 5
    supervised_reference: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    dataset: DatasetSection = field(default_factory=DatasetSection)
    dae: DaeSection = field(default_factory=DaeSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    scheduler: SchedulerSection = field(default_factory=SchedulerSection)
    contrastive: ContrastiveSection = field(default_factory=ContrastiveSection)
    eval: EvalSection = field(default_factory=EvalSection)

    def to_dict(self):
        return asdict(self)


def _set_fields(target, names, parser_section, section_name, errors):
    for name, raw in parser_section.items():
        if name not in names:
            errors.append(f"{section_name}.{name}: unknown key")
            continue
        current = getattr(target, name)
        try:
            if isinstance(current, bool):
                value = raw.strip().lower()
                if value not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
                    raise ValueError(f"{raw.strip()!r} is not 1/true/yes/on or 0/false/no/off")
                value = value in ("1", "true", "yes", "on")
            elif isinstance(current, tuple) and name.endswith("blocks"):
                value = _parse_blocks(raw)
            elif isinstance(current, tuple):
                value = tuple(type(current[0])(v.strip()) for v in raw.split(",") if v.strip())
            elif isinstance(current, int):
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            else:
                value = raw.strip()
            setattr(target, name, value)
        except ValueError as err:
            errors.append(f"{section_name}.{name}: {err}")


def load_config(path) -> "RunConfig":
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError([f"config file {path} not found or unreadable"])
    config = RunConfig()
    errors = []
    # section name -> (object its keys set, the keys it accepts)
    known = {name: (section, vars(section)) for name, section in vars(config).items()
             if name != "seed"}
    known["run"] = (config, ("seed",))
    for section_name in parser.sections():
        if section_name not in known:
            errors.append(f"unknown section [{section_name}]")
            continue
        _set_fields(*known[section_name], parser[section_name], section_name, errors)
    errors.extend(validate(config))
    if errors:
        raise ConfigError(errors)
    return config


def _blocks_errors(key, blocks):
    """A conv stack's blocks need filters, kernel and stride all >= 1."""
    bad = [":".join(map(str, b)) for b in blocks if min(b) < 1]
    return [f"{key}: filters, kernel and stride must be >= 1, got {', '.join(bad)}"] if bad else []


def dataset_size_errors(config: RunConfig, class_sizes):
    """Violated keys that must fit a dataset of {label: images} classes.

    The `dataset.subset_size` subset takes its `subset_class_sizes` share
    from each class. The eval split and the fine-tune subset are counted
    per class the way `stratified_indices` draws them, from those shares.
    """
    errors, subset_size, n = [], config.dataset.subset_size, sum(class_sizes.values())
    if subset_size > n:
        errors.append(f"dataset.subset_size: {subset_size} exceeds the dataset's {n} images")
    elif 0 < subset_size < n:
        shares = dict(zip(class_sizes, subset_class_sizes(subset_size, len(class_sizes))))
        errors.extend(f"dataset.subset_size: {subset_size} takes {want} images from class "
                      f"{cls}, which has only {class_sizes[cls]}"
                      for cls, want in shares.items() if want > class_sizes[cls])
        class_sizes = shares
    used = sum(class_sizes.values())
    if config.cluster.k > used:
        errors.append(f"cluster.k: {config.cluster.k} exceeds the {used} images it clusters")
    e, short = config.eval, {}  # key -> the first class it leaves short
    if 0 < e.val_fraction < 1 and 0 < e.finetune_fraction <= 1:  # else a range error
        for cls, size in class_sizes.items():
            val = stratified_count(e.val_fraction, size)
            if not 1 <= val < size:
                short.setdefault("eval.val_fraction", (
                    f"{e.val_fraction} splits class {cls}'s {size} images into {val} "
                    f"validation and {size - val} training images; each needs at least 1"))
            elif stratified_count(e.finetune_fraction, size - val) < 1:
                short.setdefault("eval.finetune_fraction", (
                    f"{e.finetune_fraction} picks no fine-tune image from class {cls}'s "
                    f"{size - val} training images"))
    errors.extend(f"{key}: {message}" for key, message in short.items())
    return errors


def validate(config: RunConfig):
    """Every violated field, not just the first.

    A cifar10 dataset's size is known only once it is read, so its
    `dataset_size_errors` are checked then.
    """
    errors = []

    def check(ok, message):
        if not ok:
            errors.append(message)

    d = config.dataset
    check(d.source in ("synthetic", "cifar10"), f"dataset.source: {d.source!r} not in (synthetic, cifar10)")
    check(d.source != "cifar10" or bool(d.path), "dataset.path: required when source is cifar10")
    check(d.source != "cifar10" or d.image_size == 32,
          f"dataset.image_size: must be 32 when source is cifar10, got {d.image_size}")
    check(d.source != "cifar10" or d.channels == 3,
          f"dataset.channels: must be 3 when source is cifar10, got {d.channels}")
    check(d.subset_size >= 0, f"dataset.subset_size: must be >= 0, got {d.subset_size}")
    check(d.classes >= 2, f"dataset.classes: must be >= 2, got {d.classes}")
    check(d.per_class >= 1, f"dataset.per_class: must be >= 1, got {d.per_class}")
    check(d.image_size >= 2, f"dataset.image_size: must be >= 2, got {d.image_size}")
    check(d.channels >= 1, f"dataset.channels: must be >= 1, got {d.channels}")
    if d.source == "synthetic" and d.per_class >= 1:
        errors.extend(dataset_size_errors(config, dict.fromkeys(range(d.classes), d.per_class)))

    a = config.dae
    check(a.sigma >= 0, f"dae.sigma: must be >= 0, got {a.sigma}")
    check(a.epochs >= 1, f"dae.epochs: must be >= 1, got {a.epochs}")
    check(a.patience >= 1, f"dae.patience: must be >= 1, got {a.patience}")
    check(0 < a.val_fraction < 1, f"dae.val_fraction: must be in (0,1), got {a.val_fraction}")
    check(a.batch_size >= 1, f"dae.batch_size: must be >= 1, got {a.batch_size}")
    check(a.adam_lr > 0, f"dae.adam_lr: must be > 0, got {a.adam_lr}")
    block_errors = _blocks_errors("dae.encoder_blocks", a.encoder_blocks)
    errors.extend(block_errors)
    if not block_errors:
        try:
            AutoencoderSpec(a.encoder_blocks, d.image_size, d.channels).latent_shape()
        except ValueError as err:
            errors.append(f"dae.encoder_blocks: {err}")

    c = config.cluster
    check(c.k >= 1, f"cluster.k: must be >= 1, got {c.k}")
    check(c.tol > 0, f"cluster.tol: must be > 0, got {c.tol}")
    check(c.max_iter >= 1, f"cluster.max_iter: must be >= 1, got {c.max_iter}")

    s = config.scheduler
    check(s.p >= 2, f"scheduler.p: must be >= 2, got {s.p}")

    t = config.contrastive
    check(t.temperature > 0, f"contrastive.temperature: must be > 0, got {t.temperature}")
    check(t.epochs >= 1, f"contrastive.epochs: must be >= 1, got {t.epochs}")
    check(t.base_lr > 0, f"contrastive.base_lr: must be > 0, got {t.base_lr}")
    check(len(t.head_widths) == 3, f"contrastive.head_widths: need exactly 3, got {len(t.head_widths)}")
    errors.extend(_blocks_errors("contrastive.encoder_blocks", t.encoder_blocks))

    e = config.eval
    check(e.tap_points, "eval.tap_points: need at least one of P1/P2/P3")
    check(all(p in ("P1", "P2", "P3") for p in e.tap_points),
          f"eval.tap_points: entries must be P1/P2/P3, got {e.tap_points}")
    check(len(set(e.tap_points)) == len(e.tap_points),
          f"eval.tap_points: an entry is repeated, got {e.tap_points}")
    check(0 < e.finetune_fraction <= 1, f"eval.finetune_fraction: must be in (0,1], got {e.finetune_fraction}")
    check(0 < e.val_fraction < 1, f"eval.val_fraction: must be in (0,1), got {e.val_fraction}")
    check(e.probe_epochs >= 1, f"eval.probe_epochs: must be >= 1, got {e.probe_epochs}")
    check(e.patience >= 1, f"eval.patience: must be >= 1, got {e.patience}")
    return errors
