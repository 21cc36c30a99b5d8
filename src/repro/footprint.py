"""The footprint engine: how many distinct elements does an access touch?

Every "unique elements" question in the system is answered with one
array-shaped boolean mask — the cost model's per-launch DRAM footprint
(:func:`repro.ir.metrics.unique_access_bytes`), ArrayOL tiler validity
(:mod:`repro.tilers.analysis`), paving legality
(:func:`repro.tilers.paving.paving_equivalent`) and the region oracle's
coverage proof (:func:`repro.analysis.regions.must_cover`).

Two primitives fill the mask; ``np.count_nonzero(mask)`` counts it:

* :func:`flat_mask` marks enumerated addresses — ``mask[flat] = True``,
  linear in the number of accesses plus the array size, where sorting or
  hashing (``np.unique``) would be ``O(n log n)`` or allocation-heavy.
  (The kernel evaluator's observer hands over per-dimension index arrays,
  which mark the same way: ``mask[index] = True``.)  Indices must already
  be in bounds: the evaluator raises on an out-of-bounds subscript before
  its observer sees it, and tiler indices are reduced modulo the array
  shape, so the mask counts exactly the set ``np.unique`` would;
* :func:`paint_box` paints a strided box with one slice assignment, for
  regions the analysis has proved *exact*, without enumerating them.

Boxes are duck-typed (``segs`` of ``lo``/``hi``/``step``, as in
:class:`repro.analysis.regions.Box`), so this module depends on NumPy
only and every layer can import it without a cycle.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flat_mask", "paint_box"]


def flat_mask(shape: tuple[int, ...], flat) -> np.ndarray:
    """A boolean mask of ``shape`` with the row-major flat (in-bounds)
    element indices ``flat`` set."""
    mask = np.zeros(shape, dtype=bool)
    mask.reshape(-1)[np.asarray(flat).reshape(-1)] = True
    return mask


def paint_box(mask: np.ndarray, segs) -> None:
    """Set the elements of a strided box in ``mask``, clipped to its shape.

    Each ``Seg(lo, hi, step)`` is clipped to ``[0, n)`` on its own residue
    class; a box with no element inside the mask paints nothing.
    """
    index = []
    for s, n in zip(segs, mask.shape):
        start = s.lo if s.lo >= 0 else s.lo % s.step
        stop = min(s.hi, n - 1) + 1
        if start >= stop:
            return
        index.append(slice(start, stop, s.step))
    mask[tuple(index)] = True
