"""Command-line pipeline driver.

Subcommands:
  build-lt  construct a long-tailed dataset and write its manifest
  analyze   analytic + measured label-occurrence reports per sampler combo
  train     run the soft-label trainer from a config file
  report    aggregate completed runs per strategy

Every command is a pure function of its resolved configuration and seed;
outputs embed a hash of that configuration so runs are auditable.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import longtail
from .longtail import ClassCounts, DatasetManifest, ImbalanceProfile, LabeledDataset, json_ints, json_value
from .mixer import make_batch
from .occurrence import (
    COMBO_NAMES,
    OccurrenceReport,
    analytic_occurrence,
    default_head_set,
    empirical_occurrence,
    format_float,
    parse_combo,
    write_occurrence_csv,
)
from .seeds import MAX_SEED, RNG_LAYOUT, make_rng
from .trainer import Strategy, TrainConfig, default_groups, evaluate, train, write_history_csv

PROFILE_ALIASES = {"exp": "exponential", "pareto": "pareto", "step": "step"}
DONE_MARKER = "DONE"


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian-mixture source: a balanced base carved into train/test splits."""

    classes: int
    dim: int
    separation: float
    base_per_class: int
    test_per_class: int

    def to_dict(self) -> dict:
        return {"kind": "synth", **dataclasses.asdict(self)}


@dataclass(frozen=True)
class Cifar10Spec:
    """Binary-batch source: train files are subsampled, the test file is used as-is."""

    train_paths: tuple[str, ...]
    test_path: str

    def to_dict(self) -> dict:
        return {"kind": "cifar10", "train_paths": list(self.train_paths), "test_path": self.test_path}


def _dataset_spec_from_dict(d: dict):
    kind = json_value(d, dict, "dataset").get("kind")
    if kind == "synth":
        ints = {k: json_value(d[k], int, f"dataset.{k}") for k in ("classes", "dim", "base_per_class", "test_per_class")}
        return SynthSpec(separation=float(json_value(d["separation"], float, "dataset.separation")), **ints)
    if kind == "cifar10":
        paths = json_value(d["train_paths"], list, "dataset.train_paths")
        if not paths:
            raise ValueError("dataset.train_paths must name at least one file")
        return Cifar10Spec(
            train_paths=tuple(json_value(p, str, "dataset.train_paths entry") for p in paths),
            test_path=json_value(d.get("test_path"), str, "dataset.test_path"),
        )
    raise ValueError(f"unknown dataset kind {kind!r}")


# JSON type of each train setting: the TrainConfig fields except the seed,
# which a config gives at the top level. lr_decay_epochs holds integers and
# defer_epoch may also be null.
TRAIN_TYPES = {
    "epochs": int, "batches_per_epoch": int, "batch_size": int, "lr": float,
    "lr_decay_epochs": list, "lr_decay_factor": float, "alpha": float, "strategy": str,
    "defer_epoch": int, "arch": str, "hidden": int, "momentum": float, "weight_decay": float,
}


def _train_config_from_dict(d: dict, seed: int) -> TrainConfig:
    """Check a config's ``train`` section against TRAIN_TYPES and build the run's TrainConfig."""
    unknown = set(json_value(d, dict, "train")) - set(TRAIN_TYPES)
    if unknown:
        raise ValueError(f"unknown train settings: {sorted(unknown)}")
    missing = [f.name for f in dataclasses.fields(TrainConfig) if f.default is dataclasses.MISSING and f.name not in d]
    if missing:
        raise ValueError(f"missing train settings: {missing}")
    for k, v in d.items():
        if not (k == "defer_epoch" and v is None):
            json_value(v, TRAIN_TYPES[k], f"train.{k}")
    json_ints(d.get("lr_decay_epochs", []), "train.lr_decay_epochs")
    return TrainConfig(seed=seed, **d)


@dataclass(frozen=True)
class ExperimentConfig:
    """One training run: its data, long-tail profile and train settings (``train.seed`` is the run's seed)."""

    dataset: SynthSpec | Cifar10Spec
    profile: ImbalanceProfile
    train: TrainConfig
    out_dir: str | None = None

    def to_dict(self) -> dict:
        train = dataclasses.asdict(self.train)
        seed = train.pop("seed")
        train.update(strategy=self.train.strategy.value, lr_decay_epochs=list(self.train.lr_decay_epochs))
        return {
            "dataset": self.dataset.to_dict(),
            "profile": self.profile.to_dict(),
            "train": train,
            "seed": seed,
            "out_dir": self.out_dir,
            "rng_layout": RNG_LAYOUT,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        out_dir = json_value(d, dict, "config").get("out_dir")
        layout = json_value(d.get("rng_layout", RNG_LAYOUT), int, "rng_layout")
        if layout != RNG_LAYOUT:
            raise ValueError(f"rng_layout {layout} is not this version's random-stream layout {RNG_LAYOUT}")
        return cls(
            dataset=_dataset_spec_from_dict(d["dataset"]),
            profile=ImbalanceProfile.from_dict(json_value(d["profile"], dict, "profile")),
            train=_train_config_from_dict(d["train"], json_value(d.get("seed", 0), int, "seed")),
            out_dir=None if out_dir is None else json_value(out_dir, str, "out_dir"),
        )

    def family_dict(self) -> dict:
        """Config with run-identity fields removed, for cross-run compatibility checks."""
        d = self.to_dict()
        d.pop("seed")
        d.pop("out_dir")
        d.pop("rng_layout")  # report checks layouts on their own
        d["train"].pop("strategy")
        d["train"].pop("defer_epoch")
        return d


def load_config(
    path: str | Path,
    seed: int | None = None,
    strategy: str | None = None,
    alpha: float | None = None,
    out_dir: str | None = None,
) -> ExperimentConfig:
    """Parse and check a config file.

    Each argument that is not None replaces the file's value before anything
    is checked, so an override can make a config valid: a deferred config
    with no switch epoch runs as ``strategy="mixup"``.
    """
    d = json_value(json.loads(Path(path).read_text()), dict, "config")
    top = {k: v for k, v in (("seed", seed), ("out_dir", out_dir)) if v is not None}
    settings = {k: v for k, v in (("strategy", strategy), ("alpha", alpha)) if v is not None}
    if settings:
        top["train"] = {**json_value(d["train"], dict, "train"), **settings}
    return ExperimentConfig.from_dict({**d, **top})


def _cifar10_base(paths) -> tuple[LabeledDataset, str]:
    """The records of CIFAR-10 binary files, concatenated in order, and the manifest source naming them."""
    for p in paths:
        if not Path(p).exists():
            raise FileNotFoundError(f"base dataset file not found: {p}")
    bases = [longtail.load_cifar10_binary(p) for p in paths]
    features = np.concatenate([b.features for b in bases])
    labels = np.concatenate([b.labels for b in bases])
    return LabeledDataset(features, labels, longtail.CIFAR10_CLASSES), ";".join(str(p) for p in paths)


def resolve_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset, DatasetManifest]:
    """Materialize (train, test, manifest) for an experiment config."""
    if isinstance(cfg.dataset, SynthSpec):
        spec = cfg.dataset
        base_counts = ClassCounts((spec.base_per_class,) * spec.classes)
        base = longtail.synth_gaussian_mixture(spec.classes, base_counts, spec.dim, spec.separation, cfg.train.seed)
        counts = cfg.profile.class_counts(spec.classes)
        train_ds, test_ds, manifest = longtail.longtail_split(
            base,
            counts,
            spec.test_per_class,
            cfg.train.seed,
            source=f"synth:classes={spec.classes},dim={spec.dim},separation={spec.separation}",
            profile=cfg.profile,
        )
        return train_ds, test_ds, manifest
    base, source = _cifar10_base(cfg.dataset.train_paths)
    counts = cfg.profile.class_counts(base.num_classes)
    train_ds, manifest = longtail.subsample_longtail(base, counts, cfg.train.seed, source=source, profile=cfg.profile)
    return train_ds, longtail.load_cifar10_binary(cfg.dataset.test_path), manifest


def _profile_from_args(args, n_max: int) -> ImbalanceProfile:
    kind = PROFILE_ALIASES.get(args.profile, args.profile)
    return ImbalanceProfile(kind=kind, rho=args.rho, n_max=n_max)


def cmd_build_lt(args: argparse.Namespace) -> int:
    if args.base:
        base, source = _cifar10_base(args.base)
    elif args.synth_classes:
        per_class = args.synth_per_class
        base_counts = ClassCounts((per_class,) * args.synth_classes)
        base = longtail.synth_gaussian_mixture(
            args.synth_classes, base_counts, args.synth_dim, args.synth_separation, args.seed
        )
        source = f"synth:classes={args.synth_classes},dim={args.synth_dim},separation={args.synth_separation}"
    else:
        raise ValueError("provide --base file(s) or a --synth-classes spec")

    present = base.class_sizes()
    if np.any(present == 0):
        raise ValueError("base dataset is missing examples for some class")
    n_max = args.n_max if args.n_max else int(present.min())
    profile = _profile_from_args(args, n_max)
    counts = profile.class_counts(base.num_classes)
    _, manifest = longtail.subsample_longtail(base, counts, args.seed, source=source, profile=profile)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest.save(out / "manifest.json")

    resolved = {
        "command": "build-lt",
        "source": source,
        "profile": profile.to_dict(),
        "seed": args.seed,
        "counts": list(counts),
        "rng_layout": RNG_LAYOUT,
    }
    _write_json(out / "build_info.json", {"config_sha256": config_hash(resolved), **resolved})
    print(f"class counts: {list(counts)}")
    print(f"imbalance ratio: {format_float(longtail.imbalance_ratio(counts))}")
    print(f"manifest: {out / 'manifest.json'}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if not args.alpha > 0:
        raise ValueError(f"--alpha must be positive, got {args.alpha}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    if not 0 <= args.seed <= MAX_SEED:
        raise ValueError(f"--seed must fit in 64 bits, got {args.seed}")
    manifest = DatasetManifest.load(args.manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    counts = ClassCounts(manifest.counts)
    dataset = longtail.labels_only_dataset(counts)
    index = dataset.class_index()
    head = default_head_set(counts)
    combo_names = list(COMBO_NAMES) if args.combo == "all" else [args.combo]

    summary_rows = []
    for name in combo_names:
        combo = parse_combo(name, args.alpha)
        analytic = analytic_occurrence(combo, index)
        empirical: OccurrenceReport | None = None
        if args.samples > 0:
            batch = make_batch(dataset, index, args.samples, args.alpha, combo.kinds, make_rng(args.seed, "analyze:" + name))
            empirical = empirical_occurrence([batch], len(counts), head_set=head)
            del batch  # freed before the next combo's batch is drawn, which keeps peak RSS down
        stem = f"occurrence_{name.replace('-', '_')}"
        write_occurrence_csv(out / f"{stem}.csv", list(counts), analytic, empirical)
        _write_json(
            out / f"{stem}.json",
            {
                "combo": name,
                "counts": list(counts),
                "analytic": analytic.to_dict(),
                "empirical": empirical.to_dict() if empirical else None,
            },
        )
        summary_rows.append((name, analytic, empirical))

    resolved = {
        "command": "analyze",
        # identify the manifest by content so outputs are relocatable
        "manifest_sha256": hashlib.sha256(Path(args.manifest).read_bytes()).hexdigest(),
        "combos": combo_names,
        "samples": args.samples,
        "alpha": args.alpha,
        "seed": args.seed,
        "rng_layout": RNG_LAYOUT,
    }
    digest = config_hash(resolved)
    with (out / "occurrence_summary.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["combo", "samples", "balance_ratio_analytic", "balance_ratio_empirical", "head_incidence", "config_sha256"]
        )
        for name, analytic, empirical in summary_rows:
            writer.writerow(
                [
                    name,
                    args.samples,
                    format_float(analytic.balance_ratio),
                    format_float(empirical.balance_ratio) if empirical and empirical.balance_ratio else "",
                    format_float(empirical.head_incidence) if empirical else "",
                    digest,
                ]
            )
    _write_json(out / "analyze_info.json", {"config_sha256": digest, **resolved})
    for name, analytic, empirical in summary_rows:
        measured = f" measured={format_float(empirical.balance_ratio)}" if empirical and empirical.balance_ratio else ""
        print(f"{name}: analytic max/min={format_float(analytic.balance_ratio)}{measured}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, seed=args.seed, strategy=args.strategy, alpha=args.alpha, out_dir=args.out)
    if cfg.out_dir is None:
        raise ValueError("no output directory: set out_dir in the config or pass --out")
    # every input is read before the run directory exists
    train_ds, test_ds, manifest = resolve_datasets(cfg)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = cfg.to_dict()
    # hash identifies the experiment, not where its outputs land
    digest = config_hash({k: v for k, v in resolved.items() if k != "out_dir"})
    _write_json(out / "config.json", resolved)
    manifest.save(out / "manifest.json")
    params, history = train(train_ds, test_ds, cfg.train)
    write_history_csv(out / "history.csv", history)
    report = evaluate(params, test_ds, default_groups(train_ds.class_index().counts))
    _write_json(out / "eval.json", {"config_sha256": digest, **report.to_dict()})
    (out / DONE_MARKER).write_text(digest + "\n")
    print(f"strategy={cfg.train.strategy.value} balanced_acc={format_float(report.balanced_accuracy)}")
    print(f"run dir: {out}")
    return 0


def _finished_runs(run_dirs: list[str]) -> list[tuple[Path, dict, dict]]:
    runs = []
    for d in run_dirs:
        path = Path(d)
        marker = path / DONE_MARKER
        if not marker.exists():
            continue
        config = json.loads((path / "config.json").read_text())
        evaluation = json.loads((path / "eval.json").read_text())
        runs.append((path, config, evaluation))
    return runs


def cmd_report(args: argparse.Namespace) -> int:
    runs = _finished_runs(args.runs)
    if not runs:
        raise ValueError("no completed runs found (missing DONE markers?)")
    # a config.json without rng_layout was written under layout 1
    layouts = sorted({cfg.get("rng_layout", 1) for _, cfg, _ in runs})
    if len(layouts) > 1:
        raise ValueError(f"runs mix random-stream layouts {layouts}; aggregate runs of one layout")
    families = {config_hash(ExperimentConfig.from_dict(cfg).family_dict()) for _, cfg, _ in runs}
    if len(families) > 1:
        raise ValueError(f"runs mix {len(families)} incompatible configurations; aggregate one family at a time")
    family = families.pop()

    by_strategy: dict[str, list[dict]] = {}
    for _, cfg, evaluation in runs:
        by_strategy.setdefault(cfg["train"]["strategy"], []).append(evaluation)

    def stats(values: list[float | None]) -> tuple[str, str]:
        present = [v for v in values if v is not None]
        if not present:
            return "", ""
        arr = np.asarray(present)
        return format_float(float(arr.mean())), format_float(float(arr.std()))

    header = [
        "strategy",
        "runs",
        "balanced_mean",
        "balanced_std",
        "head_mean",
        "head_std",
        "medium_mean",
        "medium_std",
        "tail_mean",
        "tail_std",
        "family_sha256",
    ]
    rows = []
    for strategy in sorted(by_strategy):
        evals = by_strategy[strategy]
        balanced = stats([e["balanced_accuracy"] for e in evals])
        groups = [stats([e["group_accuracy"][g] for e in evals]) for g in ("head", "medium", "tail")]
        rows.append([strategy, len(evals), *balanced, *groups[0], *groups[1], *groups[2], family])

    def emit(write_row) -> None:
        write_row(header)
        for row in rows:
            write_row(row)

    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.writer(fh)
            emit(writer.writerow)
    emit(lambda row: print(",".join(str(c) for c in row)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lobmix", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lt", help="construct a long-tailed dataset and write its manifest")
    p.add_argument("--base", nargs="+", help="CIFAR-10 binary batch file(s) to subsample")
    p.add_argument("--synth-classes", type=int, help="generate a balanced Gaussian-mixture base with this many classes")
    p.add_argument("--synth-dim", type=int, default=10)
    p.add_argument("--synth-separation", type=float, default=3.0)
    p.add_argument("--synth-per-class", type=int, default=1000)
    p.add_argument("--profile", choices=sorted(PROFILE_ALIASES), default="exp")
    p.add_argument("--rho", type=float, default=10.0, help="imbalance ratio: largest over smallest class")
    p.add_argument("--n-max", type=int, default=None, help="largest class size (default: smallest base class)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_lt)

    p = sub.add_parser("analyze", help="label-occurrence reports per sampler combo")
    p.add_argument("--manifest", required=True)
    p.add_argument("--combo", choices=[*COMBO_NAMES, "all"], default="all")
    p.add_argument("--samples", type=int, default=100_000, help="mixed examples per combo; 0 = analytic only")
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strategy", choices=[s.value for s in Strategy], default=None)
    p.add_argument(
        "--alpha", type=float, default=None,
        help=f"Beta shape override (config default {TrainConfig.alpha}; "
        "0.2 is the usual choice for very large image corpora)",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="aggregate completed runs per strategy")
    p.add_argument("runs", nargs="+", help="run directories written by `lobmix train`")
    p.add_argument("--out", default=None, help="aggregate CSV path (also printed)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
