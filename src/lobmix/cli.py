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
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import longtail
from .atomic import atomic_write, format_float, read_json, write_csv, write_json
from .longtail import SCHEMA, DatasetManifest, ImbalanceProfile, LabeledDataset, json_settings, json_value
from .occurrence import COMBOS, measure_combos
from .seeds import RNG_LAYOUT
from .trainer import GROUP_NAMES, STRATEGIES, TrainConfig, TrainingDiverged, standardize, train, write_history_csv

DONE_MARKER = "DONE"
SYNTH_PER_CLASS = 1000  # examples per class of a build-lt --synth-classes base when --synth-per-class is left out


def config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_digest(config: dict) -> str:
    """Hash of a run's resolved config: it identifies the experiment, not where its outputs land."""
    return config_hash({k: v for k, v in config.items() if k != "out_dir"})


@dataclass(frozen=True)
class ExperimentConfig:
    """One training run: its checked ``dataset`` section, profile and train settings (``train.seed`` is the run's seed)."""

    dataset: dict
    profile: ImbalanceProfile
    train: TrainConfig
    out_dir: str | None = None

    def to_dict(self) -> dict:
        train = dataclasses.asdict(self.train)
        seed = train.pop("seed")
        train.update(lr_decay_epochs=list(self.train.lr_decay_epochs))
        return {
            "dataset": dict(self.dataset),
            "profile": self.profile.to_dict(),
            "train": train,
            "seed": seed,
            "out_dir": self.out_dir,
            "rng_layout": RNG_LAYOUT,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = json_settings(d, SCHEMA["config"], "config", ("dataset", "profile", "train"), nullable=("out_dir",))
        layout = d.get("rng_layout", RNG_LAYOUT)
        if layout != RNG_LAYOUT:
            raise ValueError(f"rng_layout {layout} is not this version's random-stream layout {RNG_LAYOUT}")
        kind = d["dataset"].get("kind")
        if kind not in ("synth", "cifar10"):
            raise ValueError(f"unknown dataset kind {kind!r}")
        dataset = json_settings(d["dataset"], SCHEMA[kind], "dataset")
        if kind == "cifar10" and not dataset["train_paths"]:
            raise ValueError("dataset.train_paths must name at least one file")
        profile = ImbalanceProfile.from_dict(d["profile"])
        required = [f.name for f in dataclasses.fields(TrainConfig) if f.default is dataclasses.MISSING]
        train = json_settings(d["train"], SCHEMA["train"], "train", required)
        return cls(dataset, profile, TrainConfig(seed=d.get("seed", 0), **train), d.get("out_dir"))

    def family_dict(self) -> dict:
        """Config with run-identity fields removed, for cross-run compatibility checks."""
        d = self.to_dict()
        d.pop("seed")
        d.pop("out_dir")
        d.pop("rng_layout")  # from_dict admits one layout
        d["train"].pop("strategy")
        return d


def load_config(
    path: str | Path,
    seed: int | None = None,
    strategy: str | None = None,
    out_dir: str | None = None,
) -> ExperimentConfig:
    """Parse and check a config file.

    Each argument that is not None replaces the file's value before anything
    is checked, so an override can make a config valid: a deferred config
    with no switch epoch runs as ``strategy="mixup"``.
    """
    d = json_value(read_json(path), dict, "config")
    top = {k: v for k, v in (("seed", seed), ("out_dir", out_dir)) if v is not None}
    if strategy is not None and isinstance(d.get("train"), dict):  # otherwise from_dict names what is wrong
        top["train"] = {**d["train"], "strategy": strategy}
    return ExperimentConfig.from_dict({**d, **top})


def resolve_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset, DatasetManifest]:
    """Materialize (train, test, manifest) for an experiment config."""
    seed, spec = cfg.train.seed, cfg.dataset
    if spec["kind"] == "synth":
        classes, dim, separation = spec["classes"], spec["dim"], spec["separation"]
        counts = cfg.profile.class_counts(classes)  # first: it names a class count below 2 as given
        base_counts = (spec["base_per_class"],) * classes
        base = longtail.synth_gaussian_mixture(base_counts, dim, separation, seed)
        source = f"synth:classes={classes},dim={dim},separation={separation}"
        test_idx, manifest = longtail.longtail_split(
            longtail.ClassIndex.from_counts(base_counts), counts, spec["test_per_class"], seed,
            source=source, profile=cfg.profile,
        )
        kept = manifest.kept_indices
        train_ds = LabeledDataset.from_rows(base.rows[kept], base.labels[kept], base.num_classes)
        test_ds = LabeledDataset.from_rows(base.rows[test_idx], base.labels[test_idx], base.num_classes)
    else:
        for path in (*spec["train_paths"], spec["test_path"]):  # every file, before any is read
            if not Path(path).is_file():
                raise FileNotFoundError(f"dataset file not found: {path}")
        pixels, labels = longtail.read_cifar10_records(*spec["train_paths"])
        source = ";".join(spec["train_paths"])
        index = longtail.ClassIndex.from_labels(labels, longtail.CIFAR10_CLASSES)
        counts = cfg.profile.class_counts(index.num_classes)
        _, manifest = longtail.longtail_split(index, counts, 0, seed, source=source, profile=cfg.profile)
        out = np.empty((len(manifest.kept_indices), pixels.shape[1] + 1))  # the pixels and the column of ones
        # kept rows are gathered and scaled a block at a time, so no full-size uint8
        # copy of them is made; scaling commutes with the gather: the bits of
        # load_cifar10_binary's rows
        for rows in longtail.row_blocks(out):
            longtail.scale_pixels(pixels[manifest.kept_indices[rows]], out[rows])
        del pixels  # unmaps the files' bytes before the test file is read
        train_ds = LabeledDataset.from_rows(out, labels[manifest.kept_indices], index.num_classes)
        test_ds = longtail.load_cifar10_binary(spec["test_path"])
    sizes = np.bincount(test_ds.labels, minlength=test_ds.num_classes)
    if np.any(sizes == 0):
        raise ValueError(f"class {int(np.argmin(sizes))} missing from the evaluation set")
    return train_ds, test_ds, manifest


def cmd_build_lt(args: argparse.Namespace) -> int:
    if args.synth_classes < 2:  # (per_class,) * n would hide a negative n
        raise ValueError(f"need at least 2 classes, got {args.synth_classes}")
    if args.synth_classes > sys.maxsize:
        raise ValueError(f"--synth-classes must be at most {sys.maxsize}, got {args.synth_classes}")
    index = longtail.ClassIndex.from_counts((args.synth_per_class,) * args.synth_classes)
    source = f"labels-only:classes={args.synth_classes},per_class={args.synth_per_class}"
    n_max = args.synth_per_class if args.n_max is None else args.n_max
    profile = ImbalanceProfile(kind=args.profile, rho=args.rho, n_max=n_max)
    counts = profile.class_counts(index.num_classes)
    _, manifest = longtail.longtail_split(index, counts, 0, args.seed, source=source, profile=profile)
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
    write_json(out / "build_info.json", {"config_sha256": config_hash(resolved), **resolved})
    print(f"class counts: {list(counts)}")
    print(f"imbalance ratio: {format_float(max(counts) / min(counts))}")
    print(f"manifest: {out / 'manifest.json'}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    sha = hashlib.sha256()  # identifies the manifest by content, so outputs are relocatable
    # the whole block is decoded and checked, but only the counts are kept for the draws
    counts = DatasetManifest.from_dict(read_json(args.manifest, sha)).counts
    resolved = {
        "command": "analyze",
        "manifest_sha256": sha.hexdigest(),
        "combos": list(COMBOS),
        "samples": args.samples,
        "alpha": TrainConfig.alpha,
        "seed": args.seed,
        "rng_layout": RNG_LAYOUT,
    }
    digest = config_hash(resolved)
    # every combo is measured before the output directory exists
    summary_rows = measure_combos(counts, TrainConfig.alpha, args.seed, args.samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, analytic, empirical in summary_rows:
        write_json(
            out / f"occurrence_{name.replace('-', '_')}.json",
            {
                "combo": name,
                "counts": list(counts),
                "analytic": analytic.to_dict(),
                "empirical": empirical.to_dict() if empirical else None,
            },
        )
        measured = [empirical.balance_ratio, empirical.head_incidence] if empirical else [None, None]
        rows.append([name, args.samples, *map(format_float, [analytic.balance_ratio, *measured]), digest])
    header = ["combo", "samples", "balance_ratio_analytic", "balance_ratio_empirical", "head_incidence", "config_sha256"]
    write_csv(out / "occurrence_summary.csv", header, rows)
    write_json(out / "analyze_info.json", {"config_sha256": digest, **resolved})
    for name, analytic, empirical in summary_rows:
        measured = f" measured={format_float(empirical.balance_ratio)}" if empirical and empirical.balance_ratio else ""
        print(f"{name}: analytic max/min={format_float(analytic.balance_ratio)}{measured}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, seed=args.seed, strategy=args.strategy, out_dir=args.out)
    if cfg.out_dir is None:
        raise ValueError("no output directory: set out_dir in the config or pass --out")
    # every input is read, and the features standardized in place, before the run directory exists
    train_ds, test_ds, manifest = resolve_datasets(cfg)
    standardize(train_ds, test_ds)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = cfg.to_dict()
    digest = run_digest(resolved)
    write_json(out / "config.json", resolved)
    manifest.save(out / "manifest.json")
    _, history = train(train_ds, test_ds, cfg.train)
    write_history_csv(out / "history.csv", history)
    report = history[-1].report
    write_json(out / "eval.json", {"config_sha256": digest, **dataclasses.asdict(report)})
    with atomic_write(out / DONE_MARKER) as fh:  # last: DONE marks a whole run directory
        fh.write(digest + "\n")
    print(f"strategy={cfg.train.strategy} balanced_acc={format_float(report.balanced_accuracy)}")
    print(f"run dir: {out}")
    return 0


def _finished_runs(run_dirs: list[str]) -> list[tuple[ExperimentConfig, dict]]:
    """The (experiment, evaluation) of each finished run, in order; a directory without DONE is skipped."""
    runs, seen, experiments = [], set(), {}
    for d in run_dirs:
        path = Path(d)
        if not path.is_dir():  # a mistyped path is no run to skip
            raise ValueError(f"no run directory at {path}")
        if path.resolve() in seen:
            raise ValueError(f"run directory {path} is named twice")
        seen.add(path.resolve())
        marker = path / DONE_MARKER
        if not marker.exists():
            continue
        config = json_value(read_json(path / "config.json"), dict, str(path / "config.json"))
        name = str(path / "eval.json")
        evaluation = json_settings(read_json(name), SCHEMA["eval"], name)
        groups = dict.fromkeys(GROUP_NAMES, float)  # an empty group scores null
        json_settings(evaluation["group_accuracy"], groups, f"{name}.group_accuracy", nullable=GROUP_NAMES)
        # train writes DONE last, holding the hash it also wrote into eval.json
        try:
            done = marker.read_text(encoding="utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{marker} is not UTF-8: {exc}") from None
        if not done == evaluation.get("config_sha256") == run_digest(config):
            raise ValueError(f"run directory {path} is partial or altered: DONE, eval.json and config.json disagree")
        try:  # a config.json without rng_layout was written under layout 1
            experiment = ExperimentConfig.from_dict({"rng_layout": 1, **config})
        except ValueError as exc:  # such as a train key or a random-stream layout this version no longer has
            raise ValueError(f"{path / 'config.json'}: {exc}") from None
        # a copy of a run directory trained the same config and seed: the same outputs, not a second run
        digest = run_digest(experiment.to_dict())
        if digest in experiments:
            raise ValueError(f"run directories {experiments[digest]} and {path} hold the same experiment")
        experiments[digest] = path
        runs.append((experiment, evaluation))
    return runs


def cmd_report(args: argparse.Namespace) -> int:
    runs = _finished_runs(args.runs)
    if not runs:
        raise ValueError("no completed runs found (missing DONE markers?)")
    families = {config_hash(experiment.family_dict()) for experiment, _ in runs}
    if len(families) > 1:
        raise ValueError(f"runs mix {len(families)} incompatible configurations; aggregate one family at a time")
    family = families.pop()

    by_strategy: dict[str, list[dict]] = {}
    for experiment, evaluation in runs:
        by_strategy.setdefault(experiment.train.strategy, []).append(evaluation)

    def stats(values: list[float | None]) -> tuple[str, str]:
        present = [v for v in values if v is not None]
        if not present:
            return "", ""
        arr = np.asarray(present)
        return format_float(float(arr.mean())), format_float(float(arr.std()))

    columns = ("balanced", *GROUP_NAMES)
    header = ["strategy", "runs", *(f"{c}_{s}" for c in columns for s in ("mean", "std")), "family_sha256"]
    rows = []
    for strategy in sorted(by_strategy):
        evals = by_strategy[strategy]
        scores = [{"balanced": e["balanced_accuracy"], **e["group_accuracy"]} for e in evals]
        rows.append([strategy, len(evals), *(s for c in columns for s in stats([x[c] for x in scores])), family])

    if args.out:
        write_csv(args.out, header, rows)
    for row in (header, *rows):
        print(",".join(str(c) for c in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lobmix", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lt", help="construct a long-tailed dataset and write its manifest")
    p.add_argument("--synth-classes", type=int, required=True, help="classes of the balanced labels-only base")
    p.add_argument(
        "--synth-per-class", type=int, default=SYNTH_PER_CLASS, help="examples per base class (default: %(default)s)"
    )
    p.add_argument("--profile", choices=longtail.PROFILE_KINDS, default="exponential")
    p.add_argument("--rho", type=float, default=10.0, help="imbalance ratio: largest over smallest class")
    p.add_argument("--n-max", type=int, default=None, help="largest class size (default: --synth-per-class)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_lt)

    p = sub.add_parser("analyze", help="label-occurrence reports per sampler combo")
    p.add_argument("--manifest", required=True)
    p.add_argument("--samples", type=int, default=100_000, help="mixed examples per combo; 0 = analytic only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
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
    except (ValueError, OSError, KeyError, MemoryError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
