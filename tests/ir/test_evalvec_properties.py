"""Property test: the vectorised evaluator equals per-point evaluation.

A naive scalar reference evaluator executes the kernel body one index
point at a time with plain Python arithmetic; random kernels over random
buffers must agree exactly.  This is the semantic foundation the whole
simulator rests on.

The evaluator plans each kernel's accesses on its first launch and reuses
the plan; the 2-D kernels below cover every kind of index it
distinguishes (separable, coupled, loop-variable, scalar-dependent and
data-dependent) and launch each kernel repeatedly on fresh buffers with
different scalar arguments, so a reused plan can never leak stale data or
scalars.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    ArrayParam,
    Assign,
    BinOp,
    Const,
    IndexSpace,
    Kernel,
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
from repro.ir import expr as ir
from repro.ir import stmt as irs

N = 10  # 1-D buffer extent


# -- scalar reference evaluator -------------------------------------------------


def _ref_expr(e, iv, env, bufs):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, ThreadIdx):
        return iv[e.dim]
    if isinstance(e, (LocalRef, ParamRef)):
        return env[e.name]  # scalar arguments are bound in env up front
    if isinstance(e, Read):
        idx = tuple(int(_ref_expr(c, iv, env, bufs)) for c in e.index)
        return int(bufs[e.array][idx])
    if isinstance(e, UnOp):
        v = _ref_expr(e.operand, iv, env, bufs)
        return {"-": lambda x: -x, "abs": abs, "!": lambda x: not x}[e.op](v)
    if isinstance(e, Select):
        return (
            _ref_expr(e.if_true, iv, env, bufs)
            if _ref_expr(e.cond, iv, env, bufs)
            else _ref_expr(e.if_false, iv, env, bufs)
        )
    if isinstance(e, BinOp):
        a = _ref_expr(e.lhs, iv, env, bufs)
        b = _ref_expr(e.rhs, iv, env, bufs)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            q = abs(a) // abs(b)
            return q if (a >= 0) == (b >= 0) else -q
        if e.op == "%":
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return a - q * b
        if e.op == "min":
            return min(a, b)
        if e.op == "max":
            return max(a, b)
        if e.op == "<":
            return a < b
        if e.op == "<=":
            return a <= b
        if e.op == ">":
            return a > b
        if e.op == ">=":
            return a >= b
        if e.op == "==":
            return a == b
        if e.op == "!=":
            return a != b
    raise AssertionError(e)


def _ref_exec(stmts, iv, env, bufs):
    for s in stmts:
        if isinstance(s, Assign):
            env[s.name] = _ref_expr(s.value, iv, env, bufs)
        elif isinstance(s, irs.For):
            for t in range(s.start, s.stop):
                env[s.var] = t
                _ref_exec(s.body, iv, env, bufs)
        elif isinstance(s, Store):
            idx = tuple(int(_ref_expr(c, iv, env, bufs)) for c in s.index)
            bufs[s.array][idx] = _ref_expr(s.value, iv, env, bufs)


def _ref_kernel(kernel, bufs, scalars=None):
    lo, hi, st_ = kernel.space.lower, kernel.space.upper, kernel.space.step
    points = []

    def rec(d, cur):
        if d == len(lo):
            points.append(tuple(cur))
            return
        v = lo[d]
        while v < hi[d]:
            rec(d + 1, cur + [v])
            v += st_[d]

    rec(0, [])
    for iv in points:
        _ref_exec(kernel.body, iv, dict(scalars or {}), bufs)


def wrap32(x: int) -> int:  # C int32 store semantics
    return ((int(x) + 2**31) % 2**32) - 2**31


# -- random kernels ----------------------------------------------------------------


@st.composite
def rand_exprs(draw, depth=0):
    if depth >= 3:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Const(draw(st.integers(-9, 9)))
        if choice == 1:
            return ThreadIdx(0)
        return Read(
            "src",
            (BinOp("%", BinOp("+", ThreadIdx(0), Const(draw(st.integers(0, N - 1)))),
                   Const(N)),),
        )
    op = draw(st.sampled_from(["+", "-", "*", "min", "max", "div", "mod", "sel", "leaf"]))
    if op == "leaf":
        return draw(rand_exprs(depth=3))
    if op == "sel":
        return Select(
            BinOp("<", ThreadIdx(0), Const(draw(st.integers(0, N)))),
            draw(rand_exprs(depth=depth + 1)),
            draw(rand_exprs(depth=depth + 1)),
        )
    a = draw(rand_exprs(depth=depth + 1))
    b = draw(rand_exprs(depth=depth + 1))
    if op == "div":
        return BinOp("/", a, Const(draw(st.integers(1, 7))))
    if op == "mod":
        return BinOp("%", a, Const(draw(st.integers(1, 7))))
    return BinOp(op, a, b)


@st.composite
def rand_kernels(draw):
    n_locals = draw(st.integers(0, 2))
    body = []
    for i in range(n_locals):
        body.append(Assign(f"t{i}", draw(rand_exprs(depth=1))))
    value = draw(rand_exprs())
    for i in range(n_locals):
        value = BinOp("+", value, LocalRef(f"t{i}"))
    lo = draw(st.integers(0, 2))
    step = draw(st.integers(1, 3))
    body.append(Store("dst", (ThreadIdx(0),), value))
    return Kernel(
        name="k",
        space=IndexSpace((lo,), (N,), (step,)),
        arrays=(
            ArrayParam("src", (N,), intent="in"),
            ArrayParam("dst", (N,), intent="out"),
        ),
        body=tuple(body),
    )


@given(rand_kernels(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_vectorised_equals_scalar_reference(kernel, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(-40, 40, size=N).astype(np.int32)
    dst_vec = np.zeros(N, dtype=np.int32)
    evaluate_kernel(kernel, {"src": src.copy(), "dst": dst_vec})
    bufs = {"src": src.astype(object), "dst": np.zeros(N, dtype=object)}
    _ref_kernel(kernel, bufs)
    expected = np.array([wrap32(x) for x in bufs["dst"]], dtype=np.int32)
    np.testing.assert_array_equal(dst_vec, expected)


# -- 2-D kernels: every kind of index, relaunched -------------------------------

M = 6  # extent of every dimension of the 2-D buffers
T = 2  # trip count of the static loop


def _wrap(e):
    return BinOp("%", e, Const(M))


@st.composite
def index_exprs(draw, loop_var=None):
    """One index component in [0, M) of the kinds the launch plan tells
    apart: separable on one axis (affine, or through C division), constant,
    loop-variable, scalar-dependent, coupled, select, or data-dependent."""
    kinds = ["axis", "div", "const", "param", "coupled", "select", "data", "local"]
    if loop_var is not None:
        kinds.append("loop")
    kind = draw(st.sampled_from(kinds))
    axis = ThreadIdx(draw(st.integers(0, 1)))
    off = Const(draw(st.integers(0, M - 1)))
    if kind == "axis":
        return _wrap(BinOp("+", BinOp("*", axis, Const(draw(st.integers(1, 3)))), off))
    if kind == "div":
        return _wrap(BinOp("+", BinOp("*", Const(8), BinOp("/", axis, Const(3))), off))
    if kind == "const":
        return off
    if kind == "param":
        return _wrap(BinOp("+", axis, ParamRef("s")))
    if kind == "coupled":
        return _wrap(BinOp("+", ThreadIdx(0), ThreadIdx(1)))
    if kind == "select":
        return Select(BinOp("<", ThreadIdx(0), off), ThreadIdx(1), ThreadIdx(0))
    if kind == "data":
        return Read("lut", (_wrap(BinOp("+", axis, off)),))
    if kind == "local":
        return LocalRef("row")  # a static local: (3 * iv0 + s) % M
    return _wrap(BinOp("+", LocalRef(loop_var), off))


@st.composite
def values(draw, loop_var=None):
    """A value: a few reads of ``src`` combined with C arithmetic."""
    terms = [
        Read("src", (draw(index_exprs(loop_var)), draw(index_exprs(loop_var))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    value = terms[0]
    for t in terms[1:]:
        value = BinOp(draw(st.sampled_from(["+", "-", "*", "max"])), value, t)
    shape = draw(st.sampled_from(["plain", "div", "select", "param"]))
    if shape == "div":
        k = Const(draw(st.integers(1, 7)))
        value = BinOp("-", BinOp("/", value, k), BinOp("%", value, k))
    elif shape == "select":
        value = Select(BinOp(">", value, Const(0)), value, UnOp("-", LocalRef("row")))
    elif shape == "param":
        value = BinOp("+", value, BinOp("*", ParamRef("s"), ThreadIdx(1)))
    return value


@st.composite
def kernels_2d(draw):
    """A 2-D kernel over a strided space: a static and a data-dependent
    local, a static loop storing by its loop variable, and a final store
    whose index may be transposed, coupled or conflicting (one statement,
    so row-major last writer wins agrees with per-point execution)."""
    store_index = draw(st.sampled_from([
        (ThreadIdx(0), ThreadIdx(1)),
        (ThreadIdx(1), ThreadIdx(0)),
        (_wrap(BinOp("+", ThreadIdx(0), ThreadIdx(1))), ThreadIdx(1)),
        (Const(2), ThreadIdx(1)),
        (LocalRef("row"), ThreadIdx(1)),
    ]))
    body = (
        Assign("row", _wrap(BinOp("+", BinOp("*", ThreadIdx(0), Const(3)), ParamRef("s")))),
        Assign("v", draw(values())),
        irs.For("t", 0, T, (
            Assign("w", BinOp("+", draw(values(loop_var="t")), LocalRef("v"))),
            Store("acc", (LocalRef("t"), ThreadIdx(0), ThreadIdx(1)), LocalRef("w")),
        )),
        Store("dst", store_index, draw(values())),
    )
    lo = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    step = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return Kernel(
        name="k2",
        space=IndexSpace(lo, (M, M), step),
        arrays=(
            ArrayParam("src", (M, M), intent="in"),
            ArrayParam("lut", (M,), intent="in"),
            ArrayParam("acc", (T, M, M), intent="out"),
            ArrayParam("dst", (M, M), intent="out"),
        ),
        scalars=(ScalarParam("s"),),
        body=body,
    )


@given(
    kernels_2d(),
    st.lists(
        st.tuples(st.integers(0, 2**31 - 1), st.integers(0, M)), min_size=2, max_size=4
    ),
)
@settings(max_examples=80, deadline=None)
def test_relaunched_2d_kernel_equals_scalar_reference(kernel, launches):
    # repeat the first scalar argument: one launch is always a plan hit
    launches = launches + [(launches[-1][0] + 1, launches[0][1])]
    for seed, s in launches:
        rng = np.random.default_rng(seed)
        src = rng.integers(-40, 40, size=(M, M)).astype(np.int32)
        lut = rng.integers(0, M, size=M).astype(np.int32)
        got = {"acc": np.zeros((T, M, M), np.int32), "dst": np.zeros((M, M), np.int32)}
        evaluate_kernel(kernel, {"src": src.copy(), "lut": lut.copy(), **got}, {"s": s})
        bufs = {
            "src": src.astype(object),
            "lut": lut.astype(object),
            "acc": np.zeros((T, M, M), dtype=object),
            "dst": np.zeros((M, M), dtype=object),
        }
        _ref_kernel(kernel, bufs, {"s": s})
        for name in ("acc", "dst"):
            want = np.vectorize(wrap32, otypes=[np.int32])(bufs[name])
            np.testing.assert_array_equal(got[name], want, err_msg=f"{name}, s={s}")
