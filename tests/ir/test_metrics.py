"""Unit tests for kernel access probing (coalescing metrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regions import kernel_access_boxes
from repro.footprint import paint_box
from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    LocalRef,
    ParamRef,
    Read,
    ScalarParam,
    Select,
    Store,
    ThreadIdx,
    evaluate_kernel,
    probe_access_profile,
    unique_access_bytes,
)


def make(body, arrays, space):
    return Kernel(name="k", space=space, arrays=tuple(arrays), body=tuple(body))


def test_unit_stride_copy():
    k = make(
        body=[
            Store(
                "dst", (ThreadIdx(0), ThreadIdx(1)), Read("src", (ThreadIdx(0), ThreadIdx(1)))
            )
        ],
        arrays=[
            ArrayParam("src", (4, 8), intent="in"),
            ArrayParam("dst", (4, 8), intent="out"),
        ],
        space=IndexSpace((0, 0), (4, 8)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (1,)
    assert p.write_strides == (1,)
    assert p.items == 32
    assert p.reads_per_item == 1
    assert p.writes_per_item == 1


def test_column_access_has_row_stride():
    # transpose-like: adjacent threads (along dim 1) read a column
    k = make(
        body=[
            Store(
                "dst", (ThreadIdx(0), ThreadIdx(1)), Read("src", (ThreadIdx(1), ThreadIdx(0)))
            )
        ],
        arrays=[
            ArrayParam("src", (8, 8), intent="in"),
            ArrayParam("dst", (8, 8), intent="out"),
        ],
        space=IndexSpace((0, 0), (8, 8)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (8,)  # row stride of src
    assert p.write_strides == (1,)


def test_strided_generator_scales_stride():
    # iv1 runs with step 3 (a folded non-generic output tiler generator)
    k = make(
        body=[
            Store("dst", (ThreadIdx(0), ThreadIdx(1)), Read("src", (ThreadIdx(0), ThreadIdx(1))))
        ],
        arrays=[
            ArrayParam("src", (4, 12), intent="in"),
            ArrayParam("dst", (4, 12), intent="out"),
        ],
        space=IndexSpace((0, 0), (4, 12), (1, 3)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (3,)
    assert p.write_strides == (3,)


def test_loop_reads_counted_per_trip():
    k = make(
        body=[
            Assign("acc", Const(0)),
            For(
                "t",
                0,
                4,
                [
                    Assign(
                        "acc",
                        BinOp(
                            "+", LocalRef("acc"), Read("src", (ThreadIdx(0), LocalRef("t")))
                        ),
                    )
                ],
            ),
            Store("dst", (ThreadIdx(0),), LocalRef("acc")),
        ],
        arrays=[
            ArrayParam("src", (4, 8), intent="in"),
            ArrayParam("dst", (4,), intent="out"),
        ],
        space=IndexSpace((0,), (4,)),
    )
    p = probe_access_profile(k)
    assert len(p.read_strides) == 4  # one dynamic read per trip
    assert all(s == 8 for s in p.read_strides)  # adjacent threads: next row
    assert p.reads_per_item == 4


def test_single_point_space_reports_zero_strides():
    k = make(
        body=[Store("dst", (Const(0),), Read("src", (Const(0),)))],
        arrays=[
            ArrayParam("src", (4,), intent="in"),
            ArrayParam("dst", (4,), intent="out"),
        ],
        space=IndexSpace((0,), (1,)),
    )
    p = probe_access_profile(k)
    assert p.read_strides == (0,)
    assert p.write_strides == (0,)


class TestUniqueBytes:
    def test_disjoint_copy_touches_everything_once(self):
        k = make(
            body=[
                Store(
                    "dst",
                    (ThreadIdx(0), ThreadIdx(1)),
                    Read("src", (ThreadIdx(0), ThreadIdx(1))),
                )
            ],
            arrays=[
                ArrayParam("src", (4, 8), intent="in"),
                ArrayParam("dst", (4, 8), intent="out"),
            ],
            space=IndexSpace((0, 0), (4, 8)),
        )
        r, w = unique_access_bytes(k)
        assert r == 4 * 8 * 4
        assert w == 4 * 8 * 4

    def test_overlapping_windows_counted_once(self):
        # each thread reads a 4-wide window at stride 1: unique = extent + 3
        k = make(
            body=[
                Assign("acc", Const(0)),
                For(
                    "t",
                    0,
                    4,
                    [
                        Assign(
                            "acc",
                            BinOp(
                                "+",
                                LocalRef("acc"),
                                Read("src", (BinOp("+", ThreadIdx(0), LocalRef("t")),)),
                            ),
                        )
                    ],
                ),
                Store("dst", (ThreadIdx(0),), LocalRef("acc")),
            ],
            arrays=[
                ArrayParam("src", (11,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ],
            space=IndexSpace((0,), (8,)),
        )
        r, w = unique_access_bytes(k)
        assert r == 11 * 4  # positions 0..10, each once
        assert w == 8 * 4

    def test_subset_space_touches_subset(self):
        k = make(
            body=[Store("dst", (ThreadIdx(0),), Read("src", (ThreadIdx(0),)))],
            arrays=[
                ArrayParam("src", (16,), intent="in"),
                ArrayParam("dst", (16,), intent="out"),
            ],
            space=IndexSpace((0,), (16,), (4,)),
        )
        r, w = unique_access_bytes(k)
        assert r == 4 * 4
        assert w == 4 * 4


def test_diagonal_read_is_not_an_exact_box():
    # a[i, i] touches the diagonal: the per-dimension box is the whole
    # square, so the oracle must not call it exact (and the engine must
    # fall back to enumeration, counting 4 elements, not 16)
    k = make(
        body=[Store("dst", (ThreadIdx(0),), Read("src", (ThreadIdx(0), ThreadIdx(0))))],
        arrays=[
            ArrayParam("src", (4, 4), intent="in"),
            ArrayParam("dst", (4,), intent="out"),
        ],
        space=IndexSpace((0,), (4,)),
    )
    (box,) = kernel_access_boxes(k)["src"].reads
    assert not box.exact
    assert unique_access_bytes(k) == (4 * 4, 4 * 4)


# -- property: the footprint engine equals a np.unique reference --------------


def _reference_unique_bytes(kernel):
    """Distinct flat addresses per array by sorting — the definition."""
    seen = {"read": {}, "store": {}}
    shapes = {a.name: a.shape for a in kernel.arrays}

    def observer(kind, array, idx):
        flat = np.ravel_multi_index(np.broadcast_arrays(*idx), shapes[array])
        seen[kind].setdefault(array, []).append(np.ravel(flat))

    buffers = {a.name: np.zeros(a.shape, dtype=a.dtype) for a in kernel.arrays}
    evaluate_kernel(
        kernel, buffers, {s.name: 0 for s in kernel.scalars}, observer=observer
    )
    return tuple(
        sum(
            np.unique(np.concatenate(chunks)).size
            * np.dtype(kernel.array(name).dtype).itemsize
            for name, chunks in seen[kind].items()
        )
        for kind in ("read", "store")
    )


def _affine(const, terms):
    """``const + sum(coef * axis)`` and its maximum (all terms >= 0)."""
    expr, hi = Const(const), const
    for coef, axis, axis_max in terms:
        expr = BinOp("+", expr, BinOp("*", Const(coef), axis))
        hi += coef * axis_max
    return expr, hi


@st.composite
def _index_dim(draw, axes, exact, used):
    """One subscript dimension over ``axes`` (``(expr, max, stride)``).

    ``exact`` subscripts move at most one thread axis unused by the other
    dimensions, optionally widened by a complete loop window (thread
    stride at most the trip count), so the region oracle can prove them;
    general ones may couple dimensions (``a[i, i]``), wrap, divide or
    select.
    """
    const = draw(st.integers(0, 3))
    if exact:
        free = [i for i, (e, _, _) in enumerate(axes) if isinstance(e, ThreadIdx) and i not in used]
        if not free or draw(st.booleans()):
            return _affine(const, [])
        i = draw(st.sampled_from(free))
        used.add(i)
        expr, axis_max, stride = axes[i]
        coef = draw(st.integers(1, 3))
        terms = [(coef, expr, axis_max)]
        loop = len(axes) - 1
        if isinstance(axes[loop][0], LocalRef) and loop not in used:
            trip = axes[loop][1] + 1
            if coef * stride <= trip and draw(st.booleans()):
                used.add(loop)
                terms.append((1, axes[loop][0], axes[loop][1]))
        return _affine(const, terms)
    if used and draw(st.booleans()):
        # couple this dimension to an axis an earlier one moves: a[i, i]
        i = draw(st.sampled_from(sorted(used)))
        return _affine(const, [(draw(st.integers(1, 3)), *axes[i][:2])])
    chosen = draw(st.lists(st.sampled_from(range(len(axes))), max_size=3))
    used.update(chosen)
    terms = [(draw(st.integers(0, 3)), *axes[i][:2]) for i in chosen]
    expr, hi = _affine(const, terms)
    wrap = draw(st.sampled_from(["none", "none", "mod", "div", "min", "select"]))
    if wrap == "mod":
        m = draw(st.integers(1, 5))
        return BinOp("%", expr, Const(m)), min(hi, m - 1)
    if wrap == "div":
        c = draw(st.integers(1, 3))
        return BinOp("/", expr, Const(c)), hi // c
    if wrap == "min":
        m = draw(st.integers(0, 6))
        return BinOp("min", expr, Const(m)), min(hi, m)
    if wrap == "select":
        cond = BinOp("<", axes[1][0], Const(draw(st.integers(0, 4))))
        other = draw(st.integers(0, 3))
        return Select(cond, expr, Const(other)), max(hi, other)
    return expr, hi


@st.composite
def random_kernels(draw, exact):
    rank = draw(st.integers(1, 2))
    lower = tuple(draw(st.integers(0, 2)) for _ in range(rank))
    step = tuple(draw(st.integers(1, 3)) for _ in range(rank))
    extent = tuple(draw(st.integers(1, 5)) for _ in range(rank))
    upper = tuple(lo + (n - 1) * s + 1 for lo, n, s in zip(lower, extent, step))
    # axis 0 is a zero scalar parameter: evaluation and oracle bind it alike
    axes = [(ParamRef("n"), 0, 0)] + [
        (ThreadIdx(d), lo + (n - 1) * s, s)
        for d, (lo, n, s) in enumerate(zip(lower, extent, step))
    ]
    trip = draw(st.integers(0, 3))
    if trip:
        axes.append((LocalRef("t"), trip - 1, 1))

    subscripts = {}
    for array in ("src", "aux", "dst"):
        dims = draw(st.integers(1, 2))
        count = 1 if array == "dst" else draw(st.integers(1, 3))
        subscripts[array] = []
        for _ in range(count):
            used = set()
            subscripts[array].append(
                [draw(_index_dim(axes, exact, used)) for _ in range(dims)]
            )
    shapes = {
        array: tuple(
            max(sub[d][1] for sub in subs) + 1 + draw(st.integers(0, 2))
            for d in range(len(subs[0]))
        )
        for array, subs in subscripts.items()
    }

    def index(sub):
        return tuple(expr for expr, _ in sub)

    value = Const(0)
    for array in ("src", "aux"):
        for sub in subscripts[array]:
            value = BinOp("+", value, Read(array, index(sub)))
    # the stored value is a constant: a subscript that ignores some thread
    # axis could not take a whole-grid value
    body = (Assign("acc", value), Store("dst", index(subscripts["dst"][0]), Const(1)))
    if trip:
        body = (For("t", 0, trip, body),)
    return Kernel(
        name="k",
        space=IndexSpace(lower, upper, step),
        arrays=(
            ArrayParam("src", shapes["src"], intent="in"),
            ArrayParam("aux", shapes["aux"], dtype="int16", intent="in"),
            ArrayParam("dst", shapes["dst"], intent="out"),
        ),
        scalars=(ScalarParam("n"),),
        body=body,
    )


@given(random_kernels(exact=True))
@settings(max_examples=150, deadline=None)
def test_exact_boxes_are_the_access_sets(kernel):
    # the region oracle's exact=True promise, which must_cover relies on:
    # painting a kernel's exact boxes gives the set it really touches
    accesses = kernel_access_boxes(kernel, (("n", 0),))
    painted = []
    for kind in ("reads", "writes"):
        total = 0
        for name, access in accesses.items():
            boxes = getattr(access, kind)
            assert all(box.exact for box in boxes)
            array = kernel.array(name)
            mask = np.zeros(array.shape, dtype=bool)
            for box in boxes:
                paint_box(mask, box.segs)
            total += int(np.count_nonzero(mask)) * np.dtype(array.dtype).itemsize
        painted.append(total)
    reference = _reference_unique_bytes(kernel)
    assert tuple(painted) == reference
    assert unique_access_bytes(kernel) == reference


@given(random_kernels(exact=False))
@settings(max_examples=150, deadline=None)
def test_any_kernel_counts_like_np_unique(kernel):
    assert unique_access_bytes(kernel) == _reference_unique_bytes(kernel)
