"""2x2 confusion matrices and derived rates, reported both as raw ratios
and as one-decimal percentages. Two PGM masks are compared row block by
row block (`confusion_of_masks`), so no mask is ever read whole; their
headers are the one place where two grids are checked to agree."""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass

import numpy as np

from .raster_io import mask_rows


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts by (truth, prediction): tn = (0,0), fp = (0,1), fn = (1,0),
    tp = (1,1)."""

    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


def confusion(predicted, truth) -> ConfusionMatrix:
    """Counts of two bool masks of one shape."""
    p, t = np.asarray(predicted), np.asarray(truth)
    n_p, n_t, tp = (int(np.count_nonzero(a)) for a in (p, t, np.logical_and(p, t)))
    return ConfusionMatrix(tn=p.size - n_p - n_t + tp, fp=n_p - tp, fn=n_t - tp, tp=tp)


def confusion_of_masks(predicted: str | os.PathLike, truth: str | os.PathLike) -> ConfusionMatrix:
    """The `confusion` of the PGM masks at paths `predicted` and `truth`:
    both headers are read, and masks on different grids are refused, before
    any pixel is counted; then the cells are counted per row block of both
    payloads."""
    with mask_rows(predicted) as (shape, p_rows), mask_rows(truth) as (t_shape, t_rows):
        if shape != t_shape:
            raise ValueError(f"size mismatch: predicted {'x'.join(map(str, shape))}, "
                             f"truth {'x'.join(map(str, t_shape))}")
        cells = np.zeros(4, dtype=np.int64)  # tn, fp, fn, tp
        for p, t in zip(p_rows, t_rows):
            cells += astuple(confusion(p, t))
    return ConfusionMatrix(*cells.tolist())


def metrics(m: ConfusionMatrix) -> dict:
    """Accuracy, error rate, per-target-class recall, per-output-class
    precision, and cell shares of the total. A rate whose denominator is 0
    is None."""
    total = m.total
    acc = (m.tn + m.tp) / total

    def _rate(num, den):
        return num / den if den > 0 else None

    recall = [_rate(m.tn, m.tn + m.fp), _rate(m.tp, m.tp + m.fn)]
    precision = [_rate(m.tn, m.tn + m.fn), _rate(m.tp, m.tp + m.fp)]
    return {
        "counts": {"tn": m.tn, "fp": m.fp, "fn": m.fn, "tp": m.tp},
        "total": total,
        "accuracy": acc,
        "error_rate": 1.0 - acc,
        "recall": recall,
        "precision": precision,
        "cell_percent": {
            "tn": 100.0 * m.tn / total,
            "fp": 100.0 * m.fp / total,
            "fn": 100.0 * m.fn / total,
            "tp": 100.0 * m.tp / total,
        },
    }


def format_report(m: ConfusionMatrix) -> str:
    """Human-readable table: rows = output class, columns = target class,
    right column = per-output precision, bottom row = per-target recall."""
    r = metrics(m)

    def pct(x):
        return "   n/a" if x is None else f"{100.0 * x:5.1f}%"

    cp = r["cell_percent"]
    lines = [
        "                 target 0          target 1",
        f"output 0  {m.tn:>10d} {cp['tn']:5.1f}%  {m.fn:>10d} {cp['fn']:5.1f}%   {pct(r['precision'][0])}",
        f"output 1  {m.fp:>10d} {cp['fp']:5.1f}%  {m.tp:>10d} {cp['tp']:5.1f}%   {pct(r['precision'][1])}",
        f"              {pct(r['recall'][0])}            {pct(r['recall'][1])}    {pct(r['accuracy'])}",
        f"accuracy {100.0 * r['accuracy']:.1f}%   error rate {100.0 * r['error_rate']:.1f}%",
    ]
    return "\n".join(lines)
