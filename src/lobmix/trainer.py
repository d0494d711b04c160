"""Small soft-label classifier trained with SGD under configurable mixing.

The backbone is deliberately tiny (linear): the sampling and mixing
strategies under study are architecture-independent at this scale, and a
closed-form gradient keeps the update exactly checkable against finite
differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import format_float, write_csv
from .longtail import BLOCK_BYTES, SCHEMA, LabeledDataset, in_float_range, require_kind, row_blocks
from .mixer import blend, draw_pairs, pair_weights
from .occurrence import default_groups
from .samplers import CB, IB
from .seeds import make_rng

GROUP_NAMES = ("head", "medium", "tail")


# Each strategy's phases: the sampler kinds (:func:`draw_pairs`; one kind is unmixed)
# of its rows before the first decay epoch and, for a second phase, from it on.
STRATEGIES: dict[str, tuple[tuple[str, ...], ...]] = {
    "erm": ((IB,),),
    "mixup": ((IB, IB),),
    "lob": ((CB, CB),),
    "deferred": ((IB, IB), (CB, CB)),
}


# The kind of each TrainConfig field (:func:`~lobmix.longtail.require_kind`), that of its config
# setting, but ``lr_decay_epochs``, whose entries are counts, each named a "decay epoch".
FIELD_KINDS = {k: kind for k, kind in {**SCHEMA["train"], "seed": int}.items() if k != "lr_decay_epochs"}


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite."""


def init_params(dim: int, num_classes: int, seed: int) -> np.ndarray:
    """The model, one ``(num_classes, dim + 1)`` array ``W``: the logits of a dataset row ``x`` are ``W @ x``.

    ``W[:, :-1]`` is a Gaussian ``(dim, num_classes)`` draw scaled by
    1/sqrt(dim), transposed, and the last column, the bias, is zero: it
    meets the 1.0 that ends every row of a dataset's ``rows``. The model
    reads feature rows as given (see :func:`standardize`).
    """
    W = np.zeros((num_classes, dim + 1))
    W[:, :-1] = (make_rng(seed, "init").standard_normal((dim, num_classes)) / np.sqrt(dim)).T
    return W


@np.errstate(over="ignore", invalid="ignore")
def standardize(train: LabeledDataset, test: LabeledDataset) -> None:
    """Scale both feature matrices in place by the train split's column means and spreads.

    Every feature column, ``rows[:, :-1]``, becomes ``(x - mean) / std`` of
    the train column, with a zero spread taken as 1; the column of ones is
    not touched. The trainer works on the rows it is given, so call this
    once on a pair of datasets before :func:`train`, as ``lobmix train``
    does; the rows of both change, and no copy is made. Train features
    whose mean or spread overflows raise ValueError before any row changes,
    and test features that overflow once scaled raise ValueError after.
    Scaled train rows stay finite: each lies within sqrt(N) spreads of the
    mean. The rows are read in blocks (:func:`row_blocks`), so no full-size
    temporary is made. For two or more feature columns, as every ``lobmix``
    command passes, the spreads have the bits of ``x.std(axis=0)`` of a
    C-contiguous copy of the features; numpy sums other layouts pairwise,
    so their spreads may differ from it in the last bits.
    """
    if np.may_share_memory(train.rows, test.rows):  # their rows would be scaled twice
        raise ValueError("train and test features must be separate arrays")
    x, y = train.features, test.features
    offset = x.mean(axis=0)
    # x.std adds the squared deviations row after row; so does the reduce of
    # each block, whose first row holds the running column sums
    blocks = row_blocks(x)
    squares = np.zeros((1 + (blocks[0].stop if blocks else 0), x.shape[1]))
    for rows in blocks:
        block = squares[1 : 1 + rows.stop - rows.start]
        np.subtract(x[rows], offset, out=block)
        np.multiply(block, block, out=block)
        squares[0] = np.add.reduce(squares[: 1 + len(block)], axis=0)
    scale = np.sqrt(squares[0] / len(x))
    scale[scale == 0] = 1.0
    if not (np.isfinite(offset).all() and np.isfinite(scale).all()):
        raise ValueError("train features are too large to standardize: their mean or spread overflows")
    for features in (x, y):
        for rows in row_blocks(features):
            block = features[rows]
            block -= offset
            block /= scale
            if features is y and not np.isfinite(block).all():
                raise ValueError("test features overflow when scaled by the train split's mean and spread")


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the classes of fresh ``(C, B)`` logits, a column per example, computed in place and returned.

    Classes are held by rows, so the maxima and the sums over classes are
    reductions down the columns, ``np.maximum.reduce(logits, axis=0)`` and
    ``np.add.reduce(logits, axis=0)``, and subtracting and dividing by them
    broadcasts one row of ``B`` values: whatever the number of classes, no
    reduction or broadcast runs along the class axis. The sums add the
    classes in order.
    """
    logits -= np.maximum.reduce(logits, axis=0)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=0)
    return logits


def _forward(W: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Probabilities of rows ``x`` ending in 1.0, one a column: softmax of ``W @ x.T``, into ``out`` if given."""
    return _softmax(np.matmul(W, x.T, out=out))


def _target_plan(
    c_i: np.ndarray, c_j: np.ndarray, lam: np.ndarray | float, batch_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat logit positions and target weights of rows' two classes, one batch of rows per row.

    Row r of the draw is row ``r mod batch_size`` of its batch, so its
    targets sit at flat positions ``c * batch_size + (r mod batch_size)`` of
    that batch's ``(num_classes, batch_size)`` logits. Both returned arrays
    are ``(batches, 2 * batch_size)``: the c_i targets, then the c_j
    targets, with :func:`pair_weights` in the same layout.
    """
    w_i, w_j = pair_weights(c_i, c_j, lam)
    pos = np.concatenate((c_i.reshape(-1, batch_size), c_j.reshape(-1, batch_size)), axis=1)
    pos *= batch_size
    pos += np.tile(np.arange(batch_size), 2)
    weights = np.concatenate((w_i.reshape(-1, batch_size), w_j.reshape(-1, batch_size)), axis=1)
    return pos, weights


def _step_buffers(W: np.ndarray, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """A step's work buffers: ``(C, batch_size)`` logits and a gradient shaped like ``W``."""
    return np.empty((W.shape[0], batch_size)), np.empty_like(W)


def _grad_step(
    W: np.ndarray, x: np.ndarray, pos: np.ndarray, weights: np.ndarray, taken: np.ndarray,
    logits: np.ndarray, grad: np.ndarray,
) -> None:
    """Gradient of the mixed cross entropy summed over rows ``x``, given one batch row of a :func:`_target_plan`.

    ``x`` holds dataset rows, each ending in 1.0. Cross entropy is linear in
    the target, so the logit gradient is ``probs`` minus ``weights``
    scattered onto ``pos``; no (C, B) target is built. The probabilities at
    ``pos`` are first copied into ``taken``, from which :func:`_batch_losses`
    computes the loss. The logits, then the probabilities, then the logit
    gradient are written into ``logits``, a ``(num_classes, len(x))`` array
    held classes by rows. ``dlogits @ x`` goes into ``grad``, shaped like
    ``W`` (see :func:`_step_buffers`): the column of ones makes its last
    column the bias gradient. The mean's 1/len(x) is left to the caller:
    :func:`train` folds it into its learning rate. A step allocates only the
    softmax's two ``(len(x),)`` reductions.
    """
    dlogits = _forward(W, x, logits)
    flat = dlogits.reshape(-1)  # a view: the probabilities become the logit gradient in place
    flat.take(pos, out=taken)
    np.subtract.at(flat, pos, weights)  # unbuffered: coinciding classes take both weights, the second 0
    np.matmul(dlogits, x, out=grad)


def _batch_losses(taken: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mean mixed cross entropy of each batch, from the (batches, 2B) ``taken`` probabilities of its targets.

    Each row's loss is ``-(w_i * log p_i + w_j * log p_j)``, probabilities
    floored at 1e-12.
    """
    terms = np.log(np.maximum(taken, 1e-12))
    terms *= weights
    half = taken.shape[1] // 2
    rows = terms[:, :half] + terms[:, half:]
    np.negative(rows, out=rows)
    return rows.mean(axis=1)


def loss_and_grad(
    W: np.ndarray, x: np.ndarray, c_i: np.ndarray, c_j: np.ndarray, lam: np.ndarray | float
) -> tuple[float, np.ndarray]:
    """Mean mixed cross entropy and its gradient for targets given as class pairs.

    ``x`` holds ``(B, D)`` feature rows, which are widened by a column of
    ones. Row r's target carries :func:`pair_weights` on classes c_i and
    c_j. This is :func:`train`'s step on one batch: its target plan,
    gradient kernel and loss reduction, with the gradient divided by B. The
    gradient is one array shaped like ``W``.
    """
    size = x.shape[0]
    rows = np.ones((size, x.shape[1] + 1))
    rows[:, :-1] = x
    pos, weights = _target_plan(c_i, c_j, lam, size)
    taken = np.empty(pos.shape)
    logits, grad = _step_buffers(W, size)
    _grad_step(W, rows, pos[0], weights[0], taken[0], logits, grad)
    grad /= size
    return float(_batch_losses(taken, weights)[0]), grad


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run; the CLI's ``train`` config section holds every field but ``seed``."""

    epochs: int
    batches_per_epoch: int
    batch_size: int
    lr: float
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1
    alpha: float = 1.0  # the usual choice at this scale; 0.2 is common for very large image corpora
    strategy: str = "mixup"  # a key of STRATEGIES
    seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in FIELD_KINDS.items():  # first, so the checks below compare numbers and hash a string
            require_kind(getattr(self, name), kind, name)
        for e in self.lr_decay_epochs:  # int() truncates
            require_kind(e, int, "decay epoch")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {', '.join(STRATEGIES)}")
        object.__setattr__(self, "lr_decay_epochs", tuple(map(int, self.lr_decay_epochs)))
        if self.epochs < 1 or self.batches_per_epoch < 1 or self.batch_size < 1:
            raise ValueError("epochs, batches_per_epoch and batch_size must all be >= 1")
        if not (self.lr >= 0 and in_float_range(self.lr)):  # NaN and an int beyond the float range fail too
            kind = "non-negative" if self.lr < 0 else "finite"
            raise ValueError(f"learning rate must be {kind}, got {self.lr}")
        if not (self.alpha > 0 and in_float_range(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if any(b <= a for a, b in zip(self.lr_decay_epochs, self.lr_decay_epochs[1:])):
            raise ValueError(f"decay epochs must be strictly increasing, got {self.lr_decay_epochs}")
        if min(self.lr_decay_epochs, default=1) < 1:
            raise ValueError(f"decay epochs must be >= 1, got {self.lr_decay_epochs}")
        if not (self.lr_decay_factor >= 0 and in_float_range(self.lr_decay_factor)):
            kind = "non-negative" if self.lr_decay_factor < 0 else "finite"
            raise ValueError(f"lr_decay_factor must be {kind}, got {self.lr_decay_factor}")
        if len(STRATEGIES[self.strategy]) > 1 and not (self.lr_decay_epochs and self.lr_decay_epochs[0] < self.epochs):
            raise ValueError(
                f"{self.strategy} strategy needs a first lr decay epoch strictly inside (0, epochs={self.epochs}), "
                f"got {self.lr_decay_epochs}"
            )
        for name, kind in FIELD_KINDS.items():  # a numpy number, or an int float field, is stored as a Python one
            object.__setattr__(self, name, kind(getattr(self, name)))
        # the rate after the last decay is the largest if any overflows; float ** raises where * gives inf
        try:
            top = self.schedule(max(self.lr_decay_epochs, default=0))[0]
        except OverflowError:
            top = float("inf")
        if not in_float_range(top):
            n = len(self.lr_decay_epochs)
            raise ValueError(f"learning rate lr * lr_decay_factor**{n} overflows: {self.lr} * {self.lr_decay_factor}**{n}")

    def schedule(self, epoch: int) -> tuple[float, tuple[str, ...]]:
        """Learning rate and sampler kinds of ``epoch``, both set by the number ``d`` of decay epochs it has reached.

        The rate is ``lr * lr_decay_factor**d`` and the kinds are the strategy's phase ``min(d, phases - 1)``
        in :data:`STRATEGIES`: ``deferred`` switches at the first decay epoch (Cao et al., arXiv:1906.07413).
        """
        d = sum(1 for e in self.lr_decay_epochs if epoch >= e)
        phases = STRATEGIES[self.strategy]
        return self.lr * self.lr_decay_factor**d, phases[min(d, len(phases) - 1)]


@dataclass(frozen=True)
class EvalReport:
    """Per-class recalls with balanced / overall / per-group aggregates; reports compare with ``==``."""

    per_class_recall: tuple[float, ...]
    balanced_accuracy: float
    overall_accuracy: float
    group_accuracy: dict[str, float | None]


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    report: EvalReport


def evaluate(W: np.ndarray, test: LabeledDataset, groups: np.ndarray) -> EvalReport:
    """Argmax predictions on the rows of ``test`` scored as per-class recall plus group means.

    A prediction is the argmax of the logits ``x @ W.T`` of a row ``x`` of
    ``test.rows`` (a contiguous copy of ``W.T``, made once a call), taken with no
    softmax one block of ``max(1, BLOCK_BYTES // (8 * C))`` rows at a time;
    it differs from the argmax of the rounded probabilities only where
    rounding ties two classes. ``groups`` holds one GROUP_NAMES index per
    class; an empty group scores None; a class with no row raises ValueError first.
    """
    sizes = np.bincount(test.labels, minlength=test.num_classes)
    if np.any(sizes == 0):
        raise ValueError(f"class {int(np.argmin(sizes))} missing from the evaluation set")
    w = np.ascontiguousarray(W.T)
    n, step = len(test.labels), max(1, BLOCK_BYTES // (8 * test.num_classes))
    logits, predicted = np.empty((min(step, n), test.num_classes)), np.empty(n, dtype=np.intp)
    for start in range(0, n, step):
        block = np.matmul(test.rows[start : start + step], w, out=logits[: min(step, n - start)])
        block.argmax(axis=1, out=predicted[start : start + step])
    hits = predicted == test.labels
    recalls = np.bincount(test.labels, weights=hits, minlength=test.num_classes) / sizes
    group_acc: dict[str, float | None] = {}
    for g, name in enumerate(GROUP_NAMES):
        members = recalls[groups == g]
        group_acc[name] = float(np.mean(members)) if members.size else None
    return EvalReport(
        per_class_recall=tuple(recalls.tolist()),
        balanced_accuracy=float(recalls.mean()),
        overall_accuracy=float(np.mean(hits)),
        group_accuracy=group_acc,
    )


@np.errstate(over="ignore", invalid="ignore")
def train(
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    cfg: TrainConfig,
) -> tuple[np.ndarray, list[EpochStats]]:
    """Plain SGD, ``W -= lr * grad``, on soft cross entropy with the configured batch source.

    An epoch's ``batches_per_epoch * batch_size`` rows are drawn at once from
    ``make_rng(cfg.seed, "epoch", epoch)`` whatever the strategy, and batch
    ``b`` is rows ``[b * batch_size, (b + 1) * batch_size)``. Only indices,
    ratios and the epoch's :func:`_target_plan` are held (72 bytes a row,
    the taken target probabilities included). Features are gathered and
    blended as many whole batches at a time as fit in ``BLOCK_BYTES`` (one
    batch at least) into one buffer, with a scratch of one row block
    (:func:`~lobmix.mixer.blend`'s ``out``), both made once a run; each batch
    is a row slice of its chunk, the bits of blending it alone. Each step
    writes its logits and gradient into work buffers made once a run and
    scales the gradient in place by ``lr / batch_size``, which folds in the
    mean over the batch (the bits of ``lr * (grad / batch_size)`` at a
    power-of-two batch size), so it allocates nothing the size of a batch,
    and the batch losses are reduced once the epoch's steps are done.
    Runs that share a seed follow identical trajectories until their
    batch sources first differ (the deferred/vanilla equivalence before the first decay epoch).
    The model works on the rows it is given: :func:`standardize` the two
    datasets once beforehand. The test set is evaluated once an epoch, so
    ``history[-1].report`` scores the returned ``W``.

    Numpy's overflow warnings are silenced. A non-finite batch loss raises
    :class:`TrainingDiverged` naming the epoch's first such batch, checked
    once the epoch's steps are done; so does a non-finite weight after an
    epoch.
    """
    if train_ds.dim != test_ds.dim or train_ds.num_classes != test_ds.num_classes:
        raise ValueError("train and test sets must share feature dim and class count")
    index = train_ds.class_index()
    W = init_params(train_ds.dim, train_ds.num_classes, seed=cfg.seed)
    groups = default_groups(index.counts)
    history: list[EpochStats] = []
    size, rows_per_epoch = cfg.batch_size, cfg.batches_per_epoch * cfg.batch_size
    taken = np.empty((cfg.batches_per_epoch, 2 * size))
    per_chunk = min(cfg.batches_per_epoch, max(1, BLOCK_BYTES // max(1, 8 * size * train_ds.dim)))
    buffer = np.empty((per_chunk * size, train_ds.dim + 1))  # gathered or blended rows, each ending in 1.0
    scratch = np.empty((row_blocks(buffer)[0].stop, train_ds.dim + 1))  # blend's j rows, one row block
    logits, grad = _step_buffers(W, size)
    for epoch in range(cfg.epochs):
        lr, kinds = cfg.schedule(epoch)
        rate = lr / size  # a step's gradient sums over its batch: the fold of the mean's 1/size
        i, j, lam = draw_pairs(kinds, index, cfg.alpha, make_rng(cfg.seed, "epoch", epoch), rows_per_epoch)
        # labels[i] and labels[j] raise on an index beyond the rows before any
        # batch is gathered, so the gathers below may clip (the samplers draw
        # from index.flat, which holds no negative index)
        pos, weights = _target_plan(train_ds.labels[i], train_ds.labels[j], lam, size)
        for first in range(0, cfg.batches_per_epoch, per_chunk):
            rows = slice(first * size, min(first + per_chunk, cfg.batches_per_epoch) * size)
            out = buffer[: rows.stop - rows.start]
            if len(kinds) == 1:  # unmixed rows: blending at λ = 1 gives the same bits but gathers them twice
                chunk = train_ds.rows.take(i[rows], axis=0, out=out, mode="clip")
            else:  # complement-stable λ keeps the column of ones: λ + (1 - λ) is exactly 1
                chunk = blend(train_ds.rows, i[rows], j[rows], lam[rows], out=(out, scratch))
            for start in range(0, len(chunk), size):
                b = first + start // size
                _grad_step(W, chunk[start : start + size], pos[b], weights[b], taken[b], logits, grad)
                grad *= rate
                W -= grad
        losses = _batch_losses(taken, weights)
        finite = np.isfinite(losses)
        if not finite.all():
            b = int(finite.argmin())  # the first non-finite batch
            raise TrainingDiverged(f"non-finite loss {float(losses[b])} at epoch {epoch}, batch {b}")
        if not np.isfinite(W).all():
            raise TrainingDiverged(f"non-finite weights after epoch {epoch}")
        history.append(EpochStats(epoch, lr, float(losses.mean()), evaluate(W, test_ds, groups)))
    return W, history


def write_history_csv(path: str | Path, history: list[EpochStats]) -> None:
    header = ["epoch", "lr", "train_loss", "balanced_acc", "head_acc", "med_acc", "tail_acc"]
    rows = [
        [row.epoch, format_float(row.lr), format_float(row.train_loss), format_float(row.report.balanced_accuracy)]
        + [format_float(row.report.group_accuracy[name]) for name in GROUP_NAMES]
        for row in history
    ]
    write_csv(path, header, rows)
