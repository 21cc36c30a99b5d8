"""Property-based tests for the tiler algebra (hypothesis)."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TilerError
from repro.tilers import (
    Tiler,
    coarsen_paving,
    duplicate_element_count,
    flat_element_indices,
    gather,
    is_exact,
    is_injective,
    paving_equivalent,
    scatter_into_zeros,
    uncovered_element_count,
)
from repro.tilers.regions import tiler_access_box


@st.composite
def row_packet_tilers(draw):
    """Random 2-D arrays tiled by 1-D row packets (the downscaler family)."""
    rows = draw(st.integers(min_value=1, max_value=6))
    packets = draw(st.integers(min_value=1, max_value=4))
    step = draw(st.integers(min_value=1, max_value=6))
    pattern = draw(st.integers(min_value=1, max_value=10))
    cols = packets * step
    origin = (draw(st.integers(min_value=0, max_value=rows - 1)),
              draw(st.integers(min_value=0, max_value=cols - 1)))
    return Tiler(
        origin=origin,
        fitting=((0,), (1,)),
        paving=((1, 0), (0, step)),
        array_shape=(rows, cols),
        pattern_shape=(pattern,),
        repetition_shape=(rows, packets),
    )


@st.composite
def block_tilers(draw):
    """Random exact 2-D block tilings."""
    br = draw(st.integers(min_value=1, max_value=4))
    bc = draw(st.integers(min_value=1, max_value=4))
    nr = draw(st.integers(min_value=1, max_value=4))
    nc = draw(st.integers(min_value=1, max_value=4))
    return Tiler(
        origin=(0, 0),
        fitting=((1, 0), (0, 1)),
        paving=((br, 0), (0, bc)),
        array_shape=(br * nr, bc * nc),
        pattern_shape=(br, bc),
        repetition_shape=(nr, nc),
    )


@given(row_packet_tilers())
@settings(max_examples=60)
def test_elements_always_in_bounds(tiler):
    elems = tiler.all_elements()
    shape = np.asarray(tiler.array_shape)
    assert (elems >= 0).all()
    assert (elems < shape).all()


@given(row_packet_tilers())
@settings(max_examples=60)
def test_gather_agrees_with_pointwise_formula(tiler):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 100, size=tiler.array_shape)
    tiles = gather(tiler, arr)
    # spot-check the first and last repetition points against the formula
    for rep in [(0, 0), tuple(np.asarray(tiler.repetition_shape) - 1)]:
        for i in (0, tiler.pattern_shape[0] - 1):
            coord = tuple(tiler.element(rep, (i,)))
            assert tiles[rep + (i,)] == arr[coord]


@given(block_tilers())
@settings(max_examples=60)
def test_block_gather_scatter_roundtrip(tiler):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 1000, size=tiler.array_shape)
    assert duplicate_element_count(tiler) == 0
    recon = scatter_into_zeros(tiler, gather(tiler, arr))
    np.testing.assert_array_equal(recon, arr)


@given(row_packet_tilers())
@settings(max_examples=60)
def test_flat_indices_consistent_with_coordinates(tiler):
    flat = flat_element_indices(tiler)
    coords = tiler.all_elements()
    cols = tiler.array_shape[1]
    np.testing.assert_array_equal(flat, coords[..., 0] * cols + coords[..., 1])


@given(row_packet_tilers())
@settings(max_examples=60)
def test_wrap_mask_consistent_with_geometry(tiler):
    """A repetition wraps iff its raw (pre-modulo) footprint exits the array."""
    mask = tiler.wrapping_repetitions()
    pat = tiler.pattern_shape[0]
    _rows, cols = tiler.array_shape
    for rep0 in range(tiler.repetition_shape[0]):
        for rep1 in range(tiler.repetition_shape[1]):
            # references are reduced modulo the array shape before the
            # pattern offsets are added, so only the column reach matters
            # (the pattern of this family runs along columns only).
            ref_col = (tiler.origin[1] + tiler.paving[1][1] * rep1) % cols
            expected = ref_col + (pat - 1) >= cols
            assert bool(mask[rep0, rep1]) == expected, (rep0, rep1, tiler)


# -- property: the footprint engine equals a np.unique reference --------------


@st.composite
def random_tilers(draw, array_shape=None):
    """Arbitrary small tilers: any rank, negative and coupled columns,
    origins anywhere — most of them wrap."""
    if array_shape is None:
        rank = draw(st.integers(1, 2))
        array_shape = tuple(draw(st.integers(1, 7)) for _ in range(rank))
    rank = len(array_shape)
    pattern = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 2))))
    repetition = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 2))))

    def matrix(cols, lo, hi):
        return tuple(
            tuple(draw(st.integers(lo, hi)) for _ in range(cols)) for _ in range(rank)
        )

    return Tiler(
        origin=tuple(draw(st.integers(-3, 9)) for _ in range(rank)),
        fitting=matrix(len(pattern), -2, 2),
        paving=matrix(len(repetition), -3, 4),
        array_shape=array_shape,
        pattern_shape=pattern,
        repetition_shape=repetition,
    )


def _reference_counts(tiler):
    """(duplicates, uncovered) by sorting — the definition."""
    flat = flat_element_indices(tiler).reshape(-1)
    distinct = np.unique(flat).size
    return flat.size - distinct, int(np.prod(tiler.array_shape)) - distinct


def _check_counts(tiler):
    dups, uncovered = _reference_counts(tiler)
    assert duplicate_element_count(tiler) == dups
    assert uncovered_element_count(tiler) == uncovered
    assert is_injective(tiler) == (dups == 0)
    assert is_exact(tiler) == (dups == 0 and uncovered == 0)


@given(block_tilers())
@settings(max_examples=60)
def test_exact_box_counts_in_closed_form(tiler):
    box = tiler_access_box(tiler)
    assert box.exact  # the count is box.count, nothing is enumerated
    touched = set(map(int, np.unique(flat_element_indices(tiler))))
    boxed = {
        int(np.ravel_multi_index(point, tiler.array_shape))
        for point in itertools.product(*(range(s.lo, s.hi + 1, s.step) for s in box.segs))
    }
    assert touched == boxed
    _check_counts(tiler)


@given(row_packet_tilers())
@settings(max_examples=60)
def test_row_packet_counts_like_np_unique(tiler):
    _check_counts(tiler)


@given(random_tilers())
@settings(max_examples=200)
def test_any_tiler_counts_like_np_unique(tiler):
    box = tiler_access_box(tiler)
    if box.exact:
        # the oracle's promise: the exact box *is* the addressed set
        assert box.count == np.unique(flat_element_indices(tiler)).size
    _check_counts(tiler)


@st.composite
def tiler_pairs(draw):
    """Two tilers over one array: a random pair, or a tiler and one of
    its legal coarsenings (equivalent by construction)."""
    base = draw(st.one_of(random_tilers(), row_packet_tilers(), block_tilers()))
    if draw(st.booleans()):
        return base, draw(random_tilers(array_shape=base.array_shape))
    dim = draw(st.integers(0, base.repetition_rank - 1))
    factor = draw(st.integers(1, 4))
    try:
        return base, coarsen_paving(base, dim, factor)
    except TilerError:
        return base, base


@given(tiler_pairs())
@settings(max_examples=200)
def test_paving_equivalent_matches_np_unique(pair):
    base, alt = pair
    same = np.array_equal(
        np.unique(flat_element_indices(base)), np.unique(flat_element_indices(alt))
    )
    assert paving_equivalent(base, alt) == same
