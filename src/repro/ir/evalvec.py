"""Vectorised functional evaluation of kernels, in two phases.

The simulated GPU executes a kernel by evaluating its body **once for the
whole index space** with NumPy array semantics: every scalar expression is
mapped to an array over a *sparse* grid of work-items (the index along
dimension ``d`` has shape ``(1, .., n_d, .., 1)`` and broadcasting does
the rest), static ``For`` loops are unrolled, and ``Store`` statements
become indexed assignments.

Both routes emit kernels whose addresses are static functions of the
work-item (SaC generators give ``8*(j/3)+k``, ArrayOL tilers
``(o + P·r + F·i) mod shape``), so evaluation is split in two:

* the **plan phase** runs once per ``(kernel, index space, scalar
  bindings)`` and is memoised.  It walks the body without data, evaluates
  every ``Read``/``Store`` index on the sparse grid and runs the
  integrality and bounds checks on it.  A *separable* index -- each
  component varies along at most one grid axis, no two along the same
  axis -- is retained as per-axis index vectors (a slice where the vector
  is an arithmetic progression);
* the **data phase** runs per launch: it gathers through the plan (basic
  slicing plus one ``take`` per remaining axis) and evaluates only the
  value arithmetic.

An index that depends on data (a ``Read``, or a local bound to one) and a
coupled index (``a[i, i]``, ``a[i + j]``) are not retained: they are
evaluated and checked on every launch.

This gives bit-exact results (C-truncating integer division via
:func:`repro.ir.expr.c_div`) at NumPy speed, with the same write-conflict
resolution as :func:`repro.tilers.ops.scatter` (row-major last writer wins —
kernels emitted by the backends never have intra-launch write conflicts,
which :mod:`repro.ir.validate` checks for the downscaler programs).

An optional *observer* receives every evaluated memory access as
full-extent index arrays (broadcast views); the coalescing prober in
:mod:`repro.ir.metrics` uses it to measure address strides without a
second evaluator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import IRError
from repro.ir.expr import (
    BinOp,
    Const,
    Expr,
    LocalRef,
    ParamRef,
    Read,
    Select,
    ThreadIdx,
    UnOp,
    c_div,
    c_mod,
)
from repro.ir.kernel import IndexSpace, Kernel
from repro.ir.stmt import Assign, For, Store
from repro.obs.span import current_tracer

__all__ = ["evaluate_kernel", "KernelEvaluationError", "AccessObserver"]

#: signature: (kind, array_name, index_arrays) with kind in {"read", "store"}
AccessObserver = Callable[[str, str, tuple[np.ndarray, ...]], None]

#: launch plans by ``(kernel, space, scalars)`` -- kernels are immutable
#: value objects, so equal kernels share a plan
_PLANS: dict[tuple, list] = {}

#: the plan phase's value of anything computed from buffer contents
_DYNAMIC = object()


class KernelEvaluationError(IRError):
    """Raised when a kernel body cannot be evaluated (bad refs, OOB access)."""


class _Access:
    """One retained access: its index worked out once.

    ``index`` holds the sparse index arrays (for an observer and for the
    fancy-indexed store); ``keys`` the basic index, one entry per array
    dimension — an int, a slice, or ``slice(None)`` where ``takes``
    gathers a vector along the sliced result's axis ``pos``.  ``order``
    permutes the result from array-dimension order into grid-axis order
    and ``missing`` lists the grid axes it does not vary along.  A store
    writes through the basic view only when every axis with more than one
    work-item is covered and nothing needs a ``take``.
    """

    __slots__ = ("index", "keys", "takes", "order", "missing", "basic")

    def __init__(self, index, axes, grid_shape):
        self.index = index
        used = [a for a in axes if a is not None]
        keys: list = []
        takes: list[tuple[int, np.ndarray]] = []
        for c, a in zip(index, axes):
            if a is None:
                keys.append(int(c.reshape(-1)[0]))
                continue
            vec = c.reshape(-1)
            step = int(vec[1] - vec[0])
            if step and bool((np.diff(vec) == step).all()):
                stop = int(vec[-1]) + step
                keys.append(slice(int(vec[0]), stop if stop >= 0 else None, step))
            else:
                takes.append((sum(not isinstance(k, int) for k in keys), vec))
                keys.append(slice(None))
        self.keys = tuple(keys) + (Ellipsis,)  # Ellipsis: always a view
        self.takes = tuple(takes)
        order = tuple(int(p) for p in np.argsort(used))
        self.order = order if order != tuple(range(len(used))) else None
        self.missing = tuple(a for a in range(len(grid_shape)) if a not in used)
        self.basic = not takes and all(grid_shape[a] == 1 for a in self.missing)

    def view(self, buf: np.ndarray) -> np.ndarray:
        """The accessed elements of ``buf`` laid out on the sparse grid (a
        view of ``buf`` unless a ``take`` gathered)."""
        out = buf[self.keys]
        for pos, vec in self.takes:
            out = out.take(vec, axis=pos)
        if self.order is not None:
            out = out.transpose(self.order)
        return np.expand_dims(out, self.missing) if self.missing else out


def _retain(index, grid_shape) -> _Access | None:
    """The plan of a separable index: every component varies along at most
    one grid axis, and no two along the same one.  ``None`` otherwise."""
    axes = []
    for c in index:
        varying = [a for a, n in enumerate(c.shape) if n > 1]
        if len(varying) > 1:
            return None
        axes.append(varying[0] if varying else None)
    used = [a for a in axes if a is not None]
    if len(set(used)) < len(used):
        return None
    return _Access(index, axes, grid_shape)


class _Evaluator:
    """Walks a kernel body; plans when ``plan`` is ``None``, else executes
    against ``arrays`` through ``plan``."""

    def __init__(
        self,
        kernel: Kernel,
        arrays: dict[str, np.ndarray] | None,
        scalars: dict[str, int | float],
        space: IndexSpace,
        observer: AccessObserver | None,
        plan: list | None,
    ):
        self.arrays = arrays
        self.scalars = scalars
        self.shape = space.extent
        self.idx_values = space.index_values(sparse=True)
        self.shapes = {p.name: p.shape for p in kernel.arrays}
        self.env: dict = {}
        self.observer = observer
        self.planning = plan is None
        self.plan: list = [] if plan is None else plan
        self.cursor = 0

    # -- expressions ---------------------------------------------------------

    def eval(self, expr: Expr):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, ThreadIdx):
            if expr.dim >= len(self.idx_values):
                raise KernelEvaluationError(
                    f"ThreadIdx({expr.dim}) exceeds index space rank "
                    f"{len(self.idx_values)}"
                )
            return self.idx_values[expr.dim]
        if isinstance(expr, LocalRef):
            try:
                return self.env[expr.name]
            except KeyError:
                raise KernelEvaluationError(f"unbound local {expr.name!r}") from None
        if isinstance(expr, ParamRef):
            try:
                return self.scalars[expr.name]
            except KeyError:
                raise KernelEvaluationError(
                    f"unbound scalar parameter {expr.name!r}"
                ) from None
        if isinstance(expr, Read):
            return self._read(expr)
        if isinstance(expr, BinOp):
            lhs, rhs = self.eval(expr.lhs), self.eval(expr.rhs)
            if lhs is _DYNAMIC or rhs is _DYNAMIC:
                return _DYNAMIC
            return _apply_binop(expr.op, lhs, rhs)
        if isinstance(expr, UnOp):
            val = self.eval(expr.operand)
            if val is _DYNAMIC:
                return _DYNAMIC
            if expr.op == "-":
                return np.negative(val)
            if expr.op == "abs":
                return np.abs(val)
            if expr.op == "!":
                return np.logical_not(val)
            raise KernelEvaluationError(f"unknown unary op {expr.op!r}")
        if isinstance(expr, Select):
            parts = (self.eval(expr.cond), self.eval(expr.if_true), self.eval(expr.if_false))
            if any(p is _DYNAMIC for p in parts):
                return _DYNAMIC
            return np.where(*parts)
        raise KernelEvaluationError(f"unknown expression node {type(expr).__name__}")

    def _index_tuple(self, index, shape, array, what):
        """The checked sparse index arrays, or ``None`` while planning an
        index that depends on data."""
        if len(index) != len(shape):
            raise KernelEvaluationError(
                f"{what} of {array!r}: index rank {len(index)} != array rank "
                f"{len(shape)}"
            )
        values = [self.eval(e) for e in index]
        if any(v is _DYNAMIC for v in values):
            return None
        out = []
        for d, v in enumerate(values):
            v = np.asarray(v)
            if not np.issubdtype(v.dtype, np.integer):
                raise KernelEvaluationError(
                    f"{what} of {array!r}: index dim {d} is not integral"
                )
            if v.size and (int(v.min()) < 0 or int(v.max()) >= shape[d]):
                raise KernelEvaluationError(
                    f"{what} of {array!r}: index dim {d} out of bounds "
                    f"[{int(v.min())}, {int(v.max())}] for extent {shape[d]}"
                )
            out.append(v)
        return tuple(out)

    def _access(self, index, array: str, what: str):
        """The next access of the body, in evaluation order.

        Planning records a slot for it before its index is evaluated (a
        data-dependent index records the reads inside it after), so the
        data phase consumes the slots in the same pre-order.  Returns the
        retained :class:`_Access` or the index arrays evaluated now.
        """
        try:
            shape = self.shapes[array]
        except KeyError:
            raise KernelEvaluationError(f"{what} of unbound array {array!r}") from None
        if self.planning:
            slot = len(self.plan)
            self.plan.append(None)
            idx = self._index_tuple(index, shape, array, what)
            if idx is not None:
                self.plan[slot] = _retain(idx, self.shape)
            return None
        access = self.plan[self.cursor]
        self.cursor += 1
        if access is None:
            access = self._index_tuple(index, shape, array, what)
            idx = access
        else:
            idx = access.index
        if self.observer is not None:
            self.observer(what, array, tuple(
                i if i.ndim == 0 else np.broadcast_to(i, self.shape) for i in idx
            ))
        return access

    def _read(self, expr: Read):
        access = self._access(expr.index, expr.array, "read")
        if self.planning:
            return _DYNAMIC
        buf = self.arrays[expr.array]
        if isinstance(access, _Access):
            val = access.view(buf)
            # never a view: a later store must not change a read value
            copy = not access.takes
        else:
            val = buf[access]  # advanced indexing copies already
            copy = False
        if val.dtype.kind in "iu":
            return val.astype(np.int64, copy=copy)
        return val.copy() if copy else val

    # -- statements ------------------------------------------------------------

    def exec(self, stmts) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                self.env[s.name] = self.eval(s.value)
            elif isinstance(s, For):
                for v in range(s.start, s.stop):
                    self.env[s.var] = v
                    self.exec(s.body)
            elif isinstance(s, Store):
                access = self._access(s.index, s.array, "store")
                val = self.eval(s.value)
                if self.planning:
                    continue
                buf = self.arrays[s.array]
                if isinstance(access, _Access) and access.basic:
                    access.view(buf)[...] = val
                    continue
                idx = access.index if isinstance(access, _Access) else access
                # cast to buffer dtype; row-major last writer wins
                buf[tuple(np.broadcast_to(i, self.shape) for i in idx)] = val
            else:
                raise KernelEvaluationError(
                    f"unknown statement node {type(s).__name__}"
                )


def _apply_binop(op: str, lhs, rhs):
    if op == "+":
        return np.add(lhs, rhs)
    if op == "-":
        return np.subtract(lhs, rhs)
    if op == "*":
        return np.multiply(lhs, rhs)
    if op == "/":
        return c_div(lhs, rhs)
    if op == "%":
        return c_mod(lhs, rhs)
    if op == "min":
        return np.minimum(lhs, rhs)
    if op == "max":
        return np.maximum(lhs, rhs)
    if op == "<":
        return np.less(lhs, rhs)
    if op == "<=":
        return np.less_equal(lhs, rhs)
    if op == ">":
        return np.greater(lhs, rhs)
    if op == ">=":
        return np.greater_equal(lhs, rhs)
    if op == "==":
        return np.equal(lhs, rhs)
    if op == "!=":
        return np.not_equal(lhs, rhs)
    if op == "&&":
        return np.logical_and(lhs, rhs)
    if op == "||":
        return np.logical_or(lhs, rhs)
    raise KernelEvaluationError(f"unknown binary op {op!r}")


def _launch_plan(kernel: Kernel, scalars: dict, space: IndexSpace) -> list:
    """The memoised plan of one ``(kernel, space, scalars)``."""
    # a value's type is part of the key: 1 == 1.0, but only 1 can index
    key = (kernel, space, tuple((k, type(v), v) for k, v in sorted(scalars.items())))
    plan = _PLANS.get(key)
    if plan is None:
        with current_tracer().span("launch-plan", category="ir", kernel=kernel.name):
            planner = _Evaluator(kernel, None, scalars, space, None, None)
            planner.exec(kernel.body)
        plan = _PLANS[key] = planner.plan
    return plan


def evaluate_kernel(
    kernel: Kernel,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, int | float] | None = None,
    space: IndexSpace | None = None,
    observer: AccessObserver | None = None,
) -> None:
    """Execute ``kernel`` functionally against ``arrays`` (mutated in place).

    ``arrays`` maps array-parameter names to NumPy buffers whose shapes must
    match the declared parameter shapes; ``scalars`` binds scalar
    parameters.  ``space`` overrides the kernel's index space (the metrics
    prober evaluates over a 2-point sub-space); ``observer`` receives every
    memory access as ``(kind, array, index_arrays)``.  The first launch of
    a ``(kernel, space, scalars)`` plans its accesses; later ones reuse the
    plan.
    """
    scalars = dict(scalars or {})
    for p in kernel.arrays:
        if p.name not in arrays:
            raise KernelEvaluationError(
                f"kernel {kernel.name!r}: array parameter {p.name!r} not bound"
            )
        if arrays[p.name].shape != p.shape:
            raise KernelEvaluationError(
                f"kernel {kernel.name!r}: buffer for {p.name!r} has shape "
                f"{arrays[p.name].shape}, declared {p.shape}"
            )
    for p in kernel.scalars:
        if p.name not in scalars:
            raise KernelEvaluationError(
                f"kernel {kernel.name!r}: scalar parameter {p.name!r} not bound"
            )
    space = space if space is not None else kernel.space
    if space.is_empty():
        return
    plan = _launch_plan(kernel, scalars, space)
    _Evaluator(kernel, arrays, scalars, space, observer, plan).exec(kernel.body)
