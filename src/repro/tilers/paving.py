"""Parametric pavings: legal coarsenings of a tiler's ``o/F/P`` triplet.

The Figure 10 tilers are one point in a family: any paving that visits the
same array elements with the same per-element arithmetic is a legal
alternative (Feautrier's elementary transformation analysis for Array-OL
formalises exactly these re-pavings).  The transformation implemented here
is **paving coarsening** — fuse ``factor`` consecutive repetition steps
along one repetition dimension into a single, wider pattern:

* the paving column of that dimension is scaled by ``factor`` (each step
  now advances ``factor`` packets),
* the repetition extent divides by ``factor``,
* the pattern extends along the fitting direction the paving column is a
  multiple of, absorbing the ``factor - 1`` skipped packets.

The result trades repetition-space size (work-items / WLF generator
extent) against pattern size (per-item work) without changing the set of
array elements addressed — the knob :mod:`repro.tune` searches as the
ArrayOL "paving granularity" dimension.

Legality is *checked*, not assumed: :func:`paving_equivalent` compares the
:func:`~repro.tilers.regions.tiler_access_box` footprints of the base and
the coarsened tiler through the region oracle's containment test, so an
illegal re-paving can never reach the simulator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TilerError
from repro.footprint import flat_mask
from repro.tilers.ops import flat_element_indices
from repro.tilers.regions import index_columns, tiler_access_box
from repro.tilers.tiler import Tiler

__all__ = ["coarsen_paving", "paving_equivalent"]


def coarsen_paving(tiler: Tiler, rep_dim: int, factor: int) -> Tiler:
    """Fuse ``factor`` consecutive steps of ``rep_dim`` into one pattern.

    Requires the repetition extent of ``rep_dim`` to be divisible by
    ``factor`` and the paving column of ``rep_dim`` to be a positive
    integer multiple of exactly one fitting column (the pattern must be
    extendable *along the direction the paving advances* — a paving that
    moves diagonally to every pattern axis has no 1-D coarsening).
    Raises :class:`~repro.errors.TilerError` otherwise.
    """
    if factor < 1:
        raise TilerError(f"paving factor must be >= 1, got {factor}")
    if not 0 <= rep_dim < tiler.repetition_rank:
        raise TilerError(
            f"repetition dimension {rep_dim} outside rank "
            f"{tiler.repetition_rank}"
        )
    if factor == 1:
        return tiler
    extent = tiler.repetition_shape[rep_dim]
    if extent % factor:
        raise TilerError(
            f"{tiler.name}: repetition extent {extent} of dimension "
            f"{rep_dim} is not divisible by paving factor {factor}"
        )
    pav_col = tuple(tiler.paving[d][rep_dim] for d in range(tiler.array_rank))
    if all(c == 0 for c in pav_col):
        raise TilerError(
            f"{tiler.name}: paving column {rep_dim} is zero; nothing to coarsen"
        )
    # find the unique fitting column the paving column is a multiple of
    match = None
    for k in range(tiler.pattern_rank):
        fit_col = tuple(tiler.fitting[d][k] for d in range(tiler.array_rank))
        stride = None
        for p, f in zip(pav_col, fit_col):
            if f == 0:
                if p != 0:
                    stride = None
                    break
                continue
            q, r = divmod(p, f)
            if r or q < 1 or (stride is not None and q != stride):
                stride = None
                break
            stride = q
        if stride is not None:
            if match is not None:
                raise TilerError(
                    f"{tiler.name}: paving column {rep_dim} matches several "
                    f"fitting columns; coarsening is ambiguous"
                )
            match = (k, stride)
    if match is None:
        raise TilerError(
            f"{tiler.name}: paving column {rep_dim} ({pav_col}) is not an "
            f"integer multiple of any fitting column; cannot coarsen"
        )
    k, stride = match

    paving = tuple(
        tuple(
            c * factor if m == rep_dim else c
            for m, c in enumerate(row)
        )
        for row in tiler.paving
    )
    repetition = tuple(
        n // factor if m == rep_dim else n
        for m, n in enumerate(tiler.repetition_shape)
    )
    pattern = tuple(
        (factor - 1) * stride + n if j == k else n
        for j, n in enumerate(tiler.pattern_shape)
    )
    return Tiler(
        origin=tiler.origin,
        fitting=tiler.fitting,
        paving=paving,
        array_shape=tiler.array_shape,
        pattern_shape=pattern,
        repetition_shape=repetition,
        name=f"{tiler.name}_x{factor}",
    )


#: dense-fallback cap: beyond this many (rep, pat) points the footprints
#: must be proved symbolically or the answer is the conservative False
_DENSE_LIMIT = 1 << 24


def _separable_axis_masks(tiler: Tiler):
    """Per-dimension touched-coordinate masks, when the footprint factors.

    The footprint of a tiler is the product of per-dimension 1-D sets
    exactly when every pattern/repetition index component contributes to
    at most one array dimension (no column of ``F`` or ``P`` couples two
    dims).  Returns one boolean mask of length ``n`` per array dimension
    of extent ``n``, or ``None`` when the tiler is not separable.  Each
    mask is grown one index component at a time over residues mod ``n``,
    so no step enumerates more than ``n`` times that component's extent.
    """
    columns = [(col, cnt) for col, cnt in index_columns(tiler) if cnt > 1]
    if any(sum(1 for c in col if c) > 1 for col, _ in columns):
        return None
    masks = []
    for d, n in enumerate(tiler.array_shape):
        mask = np.zeros(n, dtype=bool)
        mask[tiler.origin[d] % n] = True
        for col, cnt in columns:
            if col[d]:
                values = np.flatnonzero(mask)
                mask[(values[:, None] + col[d] * np.arange(cnt)) % n] = True
        masks.append(mask)
    return masks


def paving_equivalent(base: Tiler, alt: Tiler) -> bool:
    """Do the two tilers provably address the same array elements?

    The legality oracle of the paving search.  Both footprints are first
    collapsed to strided boxes by :func:`~repro.tilers.regions.
    tiler_access_box`; mutual containment of *exact* boxes is equality of
    the addressed sets.  When a wrap widened either box (the downscaler's
    input tilers wrap at the frame edge, so their boxes are inexact), the
    footprints are compared as boolean masks (:mod:`repro.footprint`) —
    per dimension when both tilers are separable (each index component
    moves one array dim, so the footprint is a product of 1-D sets),
    otherwise over the full enumeration up to ``_DENSE_LIMIT`` points,
    past which the conservative answer is ``False``.
    """
    from repro.analysis.regions import box_contains

    if base.array_shape != alt.array_shape:
        return False
    bbox = tiler_access_box(base)
    abox = tiler_access_box(alt)
    if bbox.exact and abox.exact:
        return box_contains(bbox, abox) and box_contains(abox, bbox)
    base_masks = _separable_axis_masks(base)
    alt_masks = _separable_axis_masks(alt)
    if base_masks is not None and alt_masks is not None:
        return all(
            np.array_equal(b, a) for b, a in zip(base_masks, alt_masks)
        )
    points = (
        base.repetition_size * base.pattern_size
        + alt.repetition_size * alt.pattern_size
    )
    if points > _DENSE_LIMIT:
        return False
    shape = base.array_shape
    return bool(
        np.array_equal(
            flat_mask(shape, flat_element_indices(base)),
            flat_mask(shape, flat_element_indices(alt)),
        )
    )
