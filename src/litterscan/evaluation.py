"""2x2 confusion counts and derived rates, reported both as raw ratios
and as one-decimal percentages. A confusion is the dict of its four counts
by (truth, prediction): tn = (0,0), fp = (0,1), fn = (1,0), tp = (1,1), the
"counts" that `metrics` writes. Two PGM masks are compared row block by
row block (`confusion_of_masks`), so no mask is ever read whole; their
headers are the one place where two grids are checked to agree."""

from __future__ import annotations

import os

import numpy as np

from .raster_io import mask_rows

_CELLS = ("tn", "fp", "fn", "tp")  # the order every report lists them in


def confusion(predicted, truth) -> dict[str, int]:
    """Counts of two bool masks of one shape."""
    p, t = np.asarray(predicted), np.asarray(truth)
    n_p, n_t, tp = (int(np.count_nonzero(a)) for a in (p, t, np.logical_and(p, t)))
    return {"tn": p.size - n_p - n_t + tp, "fp": n_p - tp, "fn": n_t - tp, "tp": tp}


def confusion_of_masks(predicted: str | os.PathLike,
                       truth: str | os.PathLike) -> dict[str, int]:
    """The `confusion` of the PGM masks at paths `predicted` and `truth`:
    both headers are read, and masks on different grids are refused, before
    any pixel is counted; then each row block of both payloads adds its
    counts."""
    with mask_rows(predicted) as (shape, p_rows), mask_rows(truth) as (t_shape, t_rows):
        if shape != t_shape:
            raise ValueError(f"size mismatch: predicted {'x'.join(map(str, shape))}, "
                             f"truth {'x'.join(map(str, t_shape))}")
        counts = dict.fromkeys(_CELLS, 0)
        for p, t in zip(p_rows, t_rows):
            for cell, n in confusion(p, t).items():
                counts[cell] += n
    return counts


def metrics(counts: dict[str, int]) -> dict:
    """Accuracy, error rate, per-target-class recall, per-output-class
    precision, and cell shares of the total, from a confusion's counts. A
    rate whose denominator is 0 is None."""
    counts = {cell: counts[cell] for cell in _CELLS}
    tn, fp, fn, tp = counts.values()
    total = tn + fp + fn + tp
    acc = (tn + tp) / total

    def _rate(num, den):
        return num / den if den > 0 else None

    return {
        "counts": counts,
        "total": total,
        "accuracy": acc,
        "error_rate": 1.0 - acc,
        "recall": [_rate(tn, tn + fp), _rate(tp, tp + fn)],
        "precision": [_rate(tn, tn + fn), _rate(tp, tp + fp)],
        "cell_percent": {cell: 100.0 * n / total for cell, n in counts.items()},
    }


def format_report(counts: dict[str, int]) -> str:
    """Human-readable table: rows = output class, columns = target class,
    right column = per-output precision, bottom row = per-target recall."""
    r = metrics(counts)

    def pct(x):
        return "   n/a" if x is None else f"{100.0 * x:5.1f}%"

    def cell(name):
        return f"{r['counts'][name]:>10d} {r['cell_percent'][name]:5.1f}%"

    lines = [
        "                 target 0          target 1",
        f"output 0  {cell('tn')}  {cell('fn')}   {pct(r['precision'][0])}",
        f"output 1  {cell('fp')}  {cell('tp')}   {pct(r['precision'][1])}",
        f"              {pct(r['recall'][0])}            {pct(r['recall'][1])}    {pct(r['accuracy'])}",
        f"accuracy {100.0 * r['accuracy']:.1f}%   error rate {100.0 * r['error_rate']:.1f}%",
    ]
    return "\n".join(lines)
