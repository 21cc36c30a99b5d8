"""Unit tests for IR expressions and C arithmetic helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.ir import BinOp, Const, Read, Select, ThreadIdx, UnOp, c_div, c_mod
from repro.ir.expr import LocalRef, walk


class TestCArithmetic:
    @pytest.mark.parametrize(
        "a,b,q,r",
        [
            (7, 2, 3, 1),
            (-7, 2, -3, -1),
            (7, -2, -3, 1),
            (-7, -2, 3, -1),
            (6, 6, 1, 0),
            (0, 5, 0, 0),
        ],
    )
    def test_c_division_semantics(self, a, b, q, r):
        assert int(c_div(np.int64(a), np.int64(b))) == q
        assert int(c_mod(np.int64(a), np.int64(b))) == r

    def test_c_div_matches_c_identity(self):
        rng = np.random.default_rng(42)
        a = rng.integers(-1000, 1000, size=500)
        b = rng.integers(1, 50, size=500) * rng.choice([-1, 1], size=500)
        q = c_div(a, b)
        r = c_mod(a, b)
        np.testing.assert_array_equal(q * b + r, a)
        # remainder has the sign of the dividend (or is zero)
        assert ((r == 0) | (np.sign(r) == np.sign(a))).all()

    def test_float_division_is_true_division(self):
        assert c_div(np.float64(7.0), np.float64(2.0)) == 3.5

    def test_paper_filter_formula(self):
        # out = tmp/6 - tmp%6 with C semantics (paper Figure 5)
        tmp = np.arange(0, 256 * 6, dtype=np.int64)
        out = c_div(tmp, 6) - c_mod(tmp, 6)
        expected = tmp // 6 - tmp % 6  # positive operands: same as Python
        np.testing.assert_array_equal(out, expected)


    @pytest.mark.parametrize(
        "a,q,r", [(-5, 0, 0), (5, 0, 0), (0, 0, 0)]
    )
    def test_zero_divisor_lane_is_zero(self, a, q, r):
        """Division by zero is undefined in C; a masked-out ``Select`` lane
        still computes it eagerly and discards it.  Its value is pinned."""
        with np.errstate(divide="ignore"):
            assert int(c_div(np.int64(a), np.int64(0))) == q
            assert int(c_mod(np.int64(a), np.int64(0))) == r
            lanes = c_div(np.array([-5, 7], np.int32), np.array([0, 2], np.int64))
        np.testing.assert_array_equal(lanes, [0, 3])

    @given(
        st.lists(
            st.tuples(
                st.integers(-(2**31), 2**31 - 1),
                st.integers(-(2**31), 2**31 - 1).filter(bool),
            ),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from(["int32", "int64"]),
        st.sampled_from(["int32", "int64"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_python_truncating_division(self, pairs, a_dtype, b_dtype):
        a = np.array([p[0] for p in pairs], dtype=a_dtype)
        b = np.array([p[1] for p in pairs], dtype=b_dtype)
        want_q, want_r = [], []
        for x, y in zip(a.tolist(), b.tolist()):
            q = abs(x) // abs(y)
            q = q if (x >= 0) == (y >= 0) else -q
            want_q.append(q)
            want_r.append(x - q * y)
        q, r = c_div(a, b), c_mod(a, b)
        assert q.dtype == r.dtype == np.result_type(a, b)
        # INT32_MIN / -1 overflows int32 (undefined in C): compare mod 2**32
        if q.dtype == np.int32:
            want_q = [((v + 2**31) % 2**32) - 2**31 for v in want_q]
        assert q.tolist() == want_q
        assert r.tolist() == want_r


class TestNodeValidation:
    def test_const_rejects_bool_and_str(self):
        with pytest.raises(IRError):
            Const(True)
        with pytest.raises(IRError):
            Const("x")

    def test_threadidx_rejects_negative(self):
        with pytest.raises(IRError):
            ThreadIdx(-1)

    def test_binop_rejects_unknown_op(self):
        with pytest.raises(IRError):
            BinOp("**", Const(1), Const(2))

    def test_binop_rejects_non_expr(self):
        with pytest.raises(IRError):
            BinOp("+", Const(1), 2)

    def test_unop_rejects_unknown_op(self):
        with pytest.raises(IRError):
            UnOp("sqrt", Const(1))

    def test_read_requires_expr_indices(self):
        with pytest.raises(IRError):
            Read("a", (0,))

    def test_expressions_are_hashable_values(self):
        a = BinOp("+", ThreadIdx(0), Const(1))
        b = BinOp("+", ThreadIdx(0), Const(1))
        assert a == b
        assert hash(a) == hash(b)


class TestWalk:
    def test_walk_covers_all_nodes(self):
        e = Select(
            BinOp("<", ThreadIdx(0), Const(4)),
            Read("a", (ThreadIdx(0), BinOp("+", LocalRef("j"), Const(1)))),
            UnOp("-", Const(9)),
        )
        nodes = list(walk(e))
        assert sum(isinstance(n, Const) for n in nodes) == 3
        assert sum(isinstance(n, ThreadIdx) for n in nodes) == 2
        assert sum(isinstance(n, Read) for n in nodes) == 1
        assert sum(isinstance(n, LocalRef) for n in nodes) == 1
