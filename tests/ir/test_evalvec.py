"""Unit tests for the vectorised kernel evaluator."""

import numpy as np
import pytest

from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    KernelEvaluationError,
    LocalRef,
    ParamRef,
    Read,
    ScalarParam,
    Select,
    Store,
    ThreadIdx,
    UnOp,
    evaluate_kernel,
)


def make_kernel(body, arrays, space=None, scalars=()):
    return Kernel(
        name="k",
        space=space or IndexSpace((0, 0), (4, 8)),
        arrays=tuple(arrays),
        scalars=tuple(scalars),
        body=tuple(body),
    )


def test_elementwise_add_one():
    k = make_kernel(
        body=[
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                BinOp("+", Read("src", (ThreadIdx(0), ThreadIdx(1))), Const(1)),
            )
        ],
        arrays=[
            ArrayParam("src", (4, 8), intent="in"),
            ArrayParam("dst", (4, 8), intent="out"),
        ],
    )
    src = np.arange(32, dtype=np.int32).reshape(4, 8)
    dst = np.zeros((4, 8), dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    np.testing.assert_array_equal(dst, src + 1)


def test_strided_space_writes_only_step_points():
    k = make_kernel(
        body=[Store("dst", (ThreadIdx(0),), Const(7))],
        arrays=[ArrayParam("dst", (10,), intent="out")],
        space=IndexSpace((1,), (10,), (3,)),
    )
    dst = np.zeros(10, dtype=np.int32)
    evaluate_kernel(k, {"dst": dst})
    np.testing.assert_array_equal(dst, [0, 7, 0, 0, 7, 0, 0, 7, 0, 0])


def test_static_for_loop_accumulates():
    k = make_kernel(
        body=[
            Assign("acc", Const(0)),
            For(
                "t",
                0,
                6,
                [
                    Assign(
                        "acc",
                        BinOp("+", LocalRef("acc"), Read("src", (ThreadIdx(0), LocalRef("t")))),
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
    src = np.arange(32, dtype=np.int32).reshape(4, 8)
    dst = np.zeros(4, dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    np.testing.assert_array_equal(dst, src[:, :6].sum(axis=1))


def test_paper_filter_body():
    """tmp = sum of 6; out = tmp/6 - tmp%6 (Figure 5 semantics)."""
    body = [
        Assign("tmp", Const(0)),
        For(
            "t",
            0,
            6,
            [
                Assign(
                    "tmp",
                    BinOp("+", LocalRef("tmp"), Read("src", (ThreadIdx(0), LocalRef("t")))),
                )
            ],
        ),
        Store(
            "dst",
            (ThreadIdx(0),),
            BinOp(
                "-",
                BinOp("/", LocalRef("tmp"), Const(6)),
                BinOp("%", LocalRef("tmp"), Const(6)),
            ),
        ),
    ]
    k = make_kernel(
        body=body,
        arrays=[
            ArrayParam("src", (5, 8), intent="in"),
            ArrayParam("dst", (5,), intent="out"),
        ],
        space=IndexSpace((0,), (5,)),
    )
    rng = np.random.default_rng(3)
    src = rng.integers(0, 256, size=(5, 8)).astype(np.int32)
    dst = np.zeros(5, dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    tmp = src[:, :6].astype(np.int64).sum(axis=1)
    np.testing.assert_array_equal(dst, (tmp // 6 - tmp % 6).astype(np.int32))


def test_select_and_comparison():
    k = make_kernel(
        body=[
            Store(
                "dst",
                (ThreadIdx(0),),
                Select(
                    BinOp("<", ThreadIdx(0), Const(2)),
                    Const(1),
                    UnOp("-", Const(1)),
                ),
            )
        ],
        arrays=[ArrayParam("dst", (4,), intent="out")],
        space=IndexSpace((0,), (4,)),
    )
    dst = np.zeros(4, dtype=np.int32)
    evaluate_kernel(k, {"dst": dst})
    np.testing.assert_array_equal(dst, [1, 1, -1, -1])


def test_scalar_params():
    k = make_kernel(
        body=[Store("dst", (ThreadIdx(0),), BinOp("*", ThreadIdx(0), ParamRef("scale")))],
        arrays=[ArrayParam("dst", (4,), intent="out")],
        scalars=[ScalarParam("scale")],
        space=IndexSpace((0,), (4,)),
    )
    dst = np.zeros(4, dtype=np.int32)
    evaluate_kernel(k, {"dst": dst}, {"scale": 3})
    np.testing.assert_array_equal(dst, [0, 3, 6, 9])


def test_modulo_wrap_addressing():
    """Reads through (iv + 6) % 8 wrap like the tiler addressing."""
    k = make_kernel(
        body=[
            Store(
                "dst",
                (ThreadIdx(0),),
                Read("src", (BinOp("%", BinOp("+", ThreadIdx(0), Const(6)), Const(8)),)),
            )
        ],
        arrays=[
            ArrayParam("src", (8,), intent="in"),
            ArrayParam("dst", (8,), intent="out"),
        ],
        space=IndexSpace((0,), (8,)),
    )
    src = np.arange(8, dtype=np.int32)
    dst = np.zeros(8, dtype=np.int32)
    evaluate_kernel(k, {"src": src, "dst": dst})
    np.testing.assert_array_equal(dst, np.roll(src, -6))


class TestErrors:
    def test_out_of_bounds_read_detected(self):
        k = make_kernel(
            body=[
                Store(
                    "dst",
                    (ThreadIdx(0),),
                    Read("src", (BinOp("+", ThreadIdx(0), Const(5)),)),
                )
            ],
            arrays=[
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="out of bounds"):
            evaluate_kernel(
                k, {"src": np.zeros(8, np.int32), "dst": np.zeros(8, np.int32)}
            )

    def test_missing_buffer_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), Const(0))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="not bound"):
            evaluate_kernel(k, {})

    def test_shape_mismatch_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), Const(0))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="shape"):
            evaluate_kernel(k, {"dst": np.zeros(9, np.int32)})

    def test_missing_scalar_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), ParamRef("s"))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            scalars=[ScalarParam("s")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="scalar"):
            evaluate_kernel(k, {"dst": np.zeros(8, np.int32)})

    def test_unbound_local_detected(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), LocalRef("ghost"))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((0,), (8,)),
        )
        with pytest.raises(KernelEvaluationError, match="unbound local"):
            evaluate_kernel(k, {"dst": np.zeros(8, np.int32)})

    def test_empty_space_is_noop(self):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), Const(1))],
            arrays=[ArrayParam("dst", (8,), intent="out")],
            space=IndexSpace((3,), (3,)),
        )
        dst = np.zeros(8, dtype=np.int32)
        evaluate_kernel(k, {"dst": dst})
        assert (dst == 0).all()


class TestLaunchPlans:
    """The first launch plans a kernel's accesses; later launches reuse the
    plan.  Checks must still fire on every launch that needs them."""

    @staticmethod
    def _gather(index_dtype="int32"):
        # dst[i] = src[lut[i]]: the gather index depends on data
        return make_kernel(
            body=[
                Store("dst", (ThreadIdx(0),), Read("src", (Read("lut", (ThreadIdx(0),)),)))
            ],
            arrays=[
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("lut", (4,), dtype=index_dtype, intent="in"),
                ArrayParam("dst", (4,), intent="out"),
            ],
            space=IndexSpace((0,), (4,)),
        )

    def test_data_dependent_index_checked_on_plan_hit(self):
        k = self._gather()
        src = np.arange(10, 18, dtype=np.int32)
        dst = np.zeros(4, np.int32)
        evaluate_kernel(k, {"src": src, "lut": np.array([7, 0, 3, 3], np.int32), "dst": dst})
        np.testing.assert_array_equal(dst, [17, 10, 13, 13])
        bad = {"src": src, "lut": np.array([1, 8, 0, 0], np.int32), "dst": dst}
        with pytest.raises(KernelEvaluationError, match="out of bounds"):
            evaluate_kernel(k, bad)
        bad["lut"] = np.array([1, -1, 0, 0], np.int32)
        with pytest.raises(KernelEvaluationError, match="out of bounds"):
            evaluate_kernel(k, bad)
        # a float buffer bound on a plan hit: the index is not integral
        bad["lut"] = np.array([1.0, 2.0, 0.0, 0.0])
        with pytest.raises(KernelEvaluationError, match="not integral"):
            evaluate_kernel(k, bad)

    def test_non_integral_data_index_on_first_launch(self):
        k = self._gather(index_dtype="float64")
        with pytest.raises(KernelEvaluationError, match="not integral"):
            evaluate_kernel(k, {
                "src": np.zeros(8, np.int32), "lut": np.zeros(4), "dst": np.zeros(4, np.int32),
            })

    @pytest.mark.parametrize(
        "index,match",
        [
            (BinOp("+", ThreadIdx(0), Const(5)), "out of bounds"),
            (BinOp("-", ThreadIdx(0), Const(1)), "out of bounds"),
            (BinOp("*", ThreadIdx(0), Const(1.5)), "not integral"),
        ],
    )
    def test_static_index_error_on_every_launch(self, index, match):
        k = make_kernel(
            body=[Store("dst", (ThreadIdx(0),), Read("src", (index,)))],
            arrays=[
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ],
            space=IndexSpace((0,), (8,)),
        )
        for _ in range(2):  # a failed plan is not kept
            dst = np.zeros(8, np.int32)
            with pytest.raises(KernelEvaluationError, match=match):
                evaluate_kernel(k, {"src": np.zeros(8, np.int32), "dst": dst})
            assert not dst.any()

    def test_equal_scalars_of_another_type_plan_apart(self):
        """1 == 1.0, but only the int can index: a plan made for ``s=1``
        must not serve ``s=1.0``."""
        k = make_kernel(
            body=[
                Store(
                    "dst",
                    (ThreadIdx(0),),
                    Read("src", (BinOp("+", ThreadIdx(0), ParamRef("s")),)),
                )
            ],
            arrays=[
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (4,), intent="out"),
            ],
            space=IndexSpace((0,), (4,)),
            scalars=[ScalarParam("s")],
        )
        bufs = {"src": np.arange(8, dtype=np.int32), "dst": np.zeros(4, np.int32)}
        with pytest.raises(KernelEvaluationError, match="not integral"):
            evaluate_kernel(k, bufs, scalars={"s": 1.0})
        evaluate_kernel(k, bufs, scalars={"s": 1})
        np.testing.assert_array_equal(bufs["dst"], [1, 2, 3, 4])
        with pytest.raises(KernelEvaluationError, match="not integral"):
            evaluate_kernel(k, bufs, scalars={"s": 1.0})

    def test_planned_read_is_not_a_view(self):
        """A read of a buffer the kernel later stores to keeps its value."""
        k = make_kernel(
            body=[
                Assign("old", Read("a", (ThreadIdx(0),))),
                Store("a", (ThreadIdx(0),), Const(0)),
                Store("b", (ThreadIdx(0),), LocalRef("old")),
            ],
            arrays=[
                ArrayParam("a", (4,), dtype="int64", intent="inout"),
                ArrayParam("b", (4,), dtype="int64", intent="out"),
            ],
            space=IndexSpace((0,), (4,)),
        )
        for start in (1, 5):
            a = np.arange(start, start + 4, dtype=np.int64)
            b = np.zeros(4, np.int64)
            evaluate_kernel(k, {"a": a, "b": b})
            np.testing.assert_array_equal(b, np.arange(start, start + 4))
            assert not a.any()

    def test_observer_sees_full_extent_indices(self):
        k = make_kernel(
            body=[
                Store(
                    "dst",
                    (ThreadIdx(0), ThreadIdx(1)),
                    Read("src", (Const(1), BinOp("%", ThreadIdx(1), Const(8)))),
                )
            ],
            arrays=[
                ArrayParam("src", (4, 8), intent="in"),
                ArrayParam("dst", (4, 8), intent="out"),
            ],
        )
        seen = []
        bufs = {"src": np.zeros((4, 8), np.int32), "dst": np.zeros((4, 8), np.int32)}
        for _ in range(2):  # planning launch and plan hit alike
            seen.clear()
            evaluate_kernel(k, bufs, observer=lambda *a: seen.append(a))
            # a store's index is observed before its value is evaluated
            (kind_s, arr_s, (i, j)), (kind_r, arr_r, (row, col)) = seen
            assert (kind_s, arr_s, kind_r, arr_r) == ("store", "dst", "read", "src")
            assert row.shape == () and int(row) == 1
            assert col.shape == i.shape == j.shape == (4, 8)
            np.testing.assert_array_equal(col, np.broadcast_to(np.arange(8), (4, 8)))
            np.testing.assert_array_equal(i, np.broadcast_to(np.arange(4)[:, None], (4, 8)))
