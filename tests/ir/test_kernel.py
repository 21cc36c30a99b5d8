"""Unit tests for IndexSpace and Kernel."""

import numpy as np
import pytest

from repro.errors import IRError
from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    For,
    IndexSpace,
    Kernel,
    LocalRef,
    Read,
    ScalarParam,
    Store,
    ThreadIdx,
)


class TestIndexSpace:
    def test_extent_and_size(self):
        s = IndexSpace(lower=(0, 0), upper=(4, 6), step=(1, 2))
        assert s.extent == (4, 3)
        assert s.size == 12
        assert s.rank == 2

    def test_default_step_is_one(self):
        s = IndexSpace(lower=(1,), upper=(5,))
        assert s.step == (1,)
        assert s.extent == (4,)

    def test_non_divisible_step_rounds_up(self):
        s = IndexSpace(lower=(0,), upper=(7,), step=(3,))
        assert s.extent == (3,)  # 0, 3, 6

    def test_index_values_enumerate_logical_indices(self):
        s = IndexSpace(lower=(0, 1), upper=(2, 7), step=(1, 3))
        iv0, iv1 = s.index_values()
        np.testing.assert_array_equal(iv0, [[0, 0], [1, 1]])
        np.testing.assert_array_equal(iv1, [[1, 4], [1, 4]])

    def test_contains(self):
        s = IndexSpace(lower=(0, 1), upper=(2, 7), step=(1, 3))
        assert s.contains((0, 1))
        assert s.contains((1, 4))
        assert not s.contains((0, 2))  # off-step
        assert not s.contains((2, 1))  # beyond upper
        assert not s.contains((0,))  # wrong rank

    def test_empty_space(self):
        s = IndexSpace(lower=(3,), upper=(3,))
        assert s.is_empty()
        assert s.size == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lower=(0,), upper=(4, 4)),  # rank mismatch
            dict(lower=(0,), upper=(4,), step=(0,)),  # zero step
            dict(lower=(5,), upper=(4,)),  # negative extent
            dict(lower=(), upper=()),  # rank 0
        ],
    )
    def test_invalid_spaces(self, kwargs):
        with pytest.raises(IRError):
            IndexSpace(**kwargs)


def copy_kernel():
    """out[iv] = in[iv] + 1 over a 4x8 grid."""
    return Kernel(
        name="copy_plus_one",
        space=IndexSpace(lower=(0, 0), upper=(4, 8)),
        arrays=(
            ArrayParam("src", (4, 8), "int32", intent="in"),
            ArrayParam("dst", (4, 8), "int32", intent="out"),
        ),
        body=(
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                BinOp("+", Read("src", (ThreadIdx(0), ThreadIdx(1))), Const(1)),
            ),
        ),
    )


class TestKernel:
    def test_duplicate_param_names_rejected(self):
        with pytest.raises(IRError):
            Kernel(
                name="bad",
                space=IndexSpace((0,), (4,)),
                arrays=(ArrayParam("a", (4,)),),
                scalars=(ScalarParam("a"),),
            )

    def test_hash_is_the_value_hash(self):
        """The hash is computed once but stays a hash of the value:
        provenance is ignored and a replaced field gives a new one."""
        import dataclasses

        k = copy_kernel()
        assert hash(k) == hash(k)
        again = dataclasses.replace(copy_kernel(), provenance="elsewhere")
        assert again == k and hash(again) == hash(k)
        renamed = dataclasses.replace(k, name="other")
        assert renamed != k and hash(renamed) != hash(k)
        assert hash(dataclasses.replace(renamed, name=k.name)) == hash(k)

    def test_array_lookup(self):
        k = copy_kernel()
        assert k.array("src").intent == "in"
        with pytest.raises(IRError):
            k.array("nope")

    def test_input_output_partition(self):
        k = copy_kernel()
        assert [a.name for a in k.input_arrays] == ["src"]
        assert [a.name for a in k.output_arrays] == ["dst"]

    def test_static_counts(self):
        k = copy_kernel()
        assert k.reads_per_item() == 1
        assert k.writes_per_item() == 1
        assert k.flops_per_item() == 1

    def test_counts_scale_with_loops(self):
        body = (
            Assign("acc", Const(0)),
            For(
                "t",
                0,
                6,
                (
                    Assign(
                        "acc",
                        BinOp(
                            "+",
                            LocalRef("acc"),
                            Read("src", (ThreadIdx(0), LocalRef("t"))),
                        ),
                    ),
                ),
            ),
            Store("dst", (ThreadIdx(0),), LocalRef("acc")),
        )
        k = Kernel(
            name="rowsum6",
            space=IndexSpace((0,), (4,)),
            arrays=(
                ArrayParam("src", (4, 8), intent="in"),
                ArrayParam("dst", (4,), intent="out"),
            ),
            body=body,
        )
        assert k.reads_per_item() == 6
        assert k.writes_per_item() == 1
        assert k.flops_per_item() == 6  # one add per trip

    def test_referenced_arrays_and_free_locals(self):
        k = copy_kernel()
        assert k.referenced_arrays() == {"src", "dst"}
        assert k.free_locals() == set()
        assert k.max_thread_dim() == 1

    def test_array_param_nbytes(self):
        p = ArrayParam("a", (10, 10), "int32")
        assert p.nbytes == 400
        assert p.size == 100

    def test_array_param_validation(self):
        with pytest.raises(IRError):
            ArrayParam("a", (0, 3))
        with pytest.raises(IRError):
            ArrayParam("a", (3,), intent="rw")
