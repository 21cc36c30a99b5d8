"""Kernels and index spaces.

A :class:`Kernel` is the unit both backends emit: a statement body executed
once per point of an :class:`IndexSpace`.  Following the paper's CUDA
backend, *one kernel corresponds to one WITH-loop generator* (SaC route) or
*one elementary task* (ArrayOL route).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from repro.errors import IRError
from repro.ir.expr import LocalRef, ParamRef, Read, ThreadIdx
from repro.ir.stmt import Assign, For, Stmt, Store, expressions_of, walk_stmts

__all__ = ["IndexSpace", "ArrayParam", "ScalarParam", "Kernel"]


@dataclass(frozen=True)
class IndexSpace:
    """A dense rectangular grid of logical index values.

    Dimension ``d`` enumerates ``lower[d], lower[d]+step[d], ...`` strictly
    below ``upper[d]``.  This mirrors a SaC generator ``(lower <= iv < upper
    step step)`` with width 1, and an ArrayOL repetition space when ``lower``
    is zero and ``step`` one.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]
    step: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        lower = tuple(int(x) for x in self.lower)
        upper = tuple(int(x) for x in self.upper)
        step = tuple(int(x) for x in (self.step or (1,) * len(lower)))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "step", step)
        if not (len(lower) == len(upper) == len(step)):
            raise IRError(
                f"IndexSpace rank mismatch: lower={lower} upper={upper} step={step}"
            )
        if not lower:
            raise IRError("IndexSpace must have rank >= 1")
        for d, (lo, hi, st) in enumerate(zip(lower, upper, step)):
            if st <= 0:
                raise IRError(f"IndexSpace step must be positive (dim {d}: {st})")
            if hi < lo:
                raise IRError(f"IndexSpace has negative extent (dim {d}: [{lo},{hi}))")

    @property
    def rank(self) -> int:
        return len(self.lower)

    @property
    def extent(self) -> tuple[int, ...]:
        """Number of points per dimension."""
        return tuple(
            max(0, -(-(hi - lo) // st))
            for lo, hi, st in zip(self.lower, self.upper, self.step)
        )

    @property
    def size(self) -> int:
        """Total number of points (work-items launched)."""
        return prod(self.extent)

    def is_empty(self) -> bool:
        return self.size == 0

    def index_values(self, sparse: bool = False) -> list[np.ndarray]:
        """Per-dimension logical index values, broadcast over the grid.

        Returns ``rank`` arrays of shape :attr:`extent`; element ``[p]`` of
        array ``d`` is the value of ``iv[d]`` at grid point ``p``.  With
        ``sparse`` array ``d`` has extent 1 along every other dimension
        (broadcasting gives the full grid).
        """
        axes = [
            np.arange(lo, hi, st, dtype=np.int64)
            for lo, hi, st in zip(self.lower, self.upper, self.step)
        ]
        return list(np.meshgrid(*axes, indexing="ij", sparse=sparse))

    def contains(self, point) -> bool:
        """Whether an integer point is enumerated by this space."""
        pt = tuple(int(x) for x in point)
        if len(pt) != self.rank:
            return False
        return all(
            lo <= v < hi and (v - lo) % st == 0
            for v, lo, hi, st in zip(pt, self.lower, self.upper, self.step)
        )


@dataclass(frozen=True)
class ArrayParam:
    """A device-array parameter of a kernel."""

    name: str
    shape: tuple[int, ...]
    dtype: str = "int32"
    intent: str = "in"  # "in" | "out" | "inout"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(x) for x in self.shape))
        if self.intent not in ("in", "out", "inout"):
            raise IRError(f"ArrayParam intent must be in/out/inout, got {self.intent!r}")
        if any(s <= 0 for s in self.shape):
            raise IRError(f"ArrayParam {self.name!r} has non-positive shape {self.shape}")

    @property
    def size(self) -> int:
        return prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ScalarParam:
    """A scalar parameter of a kernel."""

    name: str
    dtype: str = "int32"


@dataclass(frozen=True)
class Kernel:
    """A GPU kernel: a statement body over an index space.

    Attributes
    ----------
    name:
        Kernel symbol name (also used in emitted CUDA/OpenCL source).
    space:
        The launch index space; one work-item per point.
    arrays:
        Device array parameters, in signature order.
    scalars:
        Scalar parameters, in signature order.
    body:
        Statements executed per work-item.
    provenance:
        Human-readable origin (e.g. ``"with-loop generator 2 of hfilter"``).
    """

    name: str
    space: IndexSpace
    arrays: tuple[ArrayParam, ...]
    scalars: tuple[ScalarParam, ...] = ()
    body: tuple[Stmt, ...] = ()
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "scalars", tuple(self.scalars))
        object.__setattr__(self, "body", tuple(self.body))
        names = [a.name for a in self.arrays] + [s.name for s in self.scalars]
        if len(set(names)) != len(names):
            raise IRError(f"kernel {self.name!r} has duplicate parameter names: {names}")

    def __hash__(self) -> int:
        # the body is a deep expression tree and kernels key process-wide
        # caches on every launch: hash it once
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.name, self.space, self.arrays, self.scalars, self.body))
            object.__setattr__(self, "_hash", h)
        return h

    # -- lookups -----------------------------------------------------------

    def array(self, name: str) -> ArrayParam:
        for a in self.arrays:
            if a.name == name:
                return a
        raise IRError(f"kernel {self.name!r} has no array parameter {name!r}")

    @property
    def input_arrays(self) -> tuple[ArrayParam, ...]:
        return tuple(a for a in self.arrays if a.intent in ("in", "inout"))

    @property
    def output_arrays(self) -> tuple[ArrayParam, ...]:
        return tuple(a for a in self.arrays if a.intent in ("out", "inout"))

    # -- static summaries (consumed by the cost model) ----------------------

    def reads_per_item(self) -> int:
        """Number of array-element reads one work-item performs."""
        return self._count_per_item(lambda e: isinstance(e, Read))

    def writes_per_item(self) -> int:
        """Number of array-element writes one work-item performs."""
        count = 0
        for s, mult in self._stmts_with_multiplicity():
            if isinstance(s, Store):
                count += mult
        return count

    def flops_per_item(self) -> int:
        """Number of scalar arithmetic operations one work-item performs."""
        from repro.ir.expr import BinOp, Select, UnOp

        return self._count_per_item(lambda e: isinstance(e, (BinOp, UnOp, Select)))

    def _stmts_with_multiplicity(self):
        """Yield (stmt, multiplicity) accounting for enclosing static loops."""

        def go(stmts: tuple[Stmt, ...], mult: int):
            for s in stmts:
                yield s, mult
                if isinstance(s, For):
                    yield from go(s.body, mult * s.trip_count)

        yield from go(self.body, 1)

    def _count_per_item(self, pred) -> int:
        from repro.ir.expr import walk

        count = 0
        for s, mult in self._stmts_with_multiplicity():
            if isinstance(s, Assign):
                count += mult * sum(1 for e in walk(s.value) if pred(e))
            elif isinstance(s, Store):
                here = sum(1 for e in walk(s.value) if pred(e))
                for idx in s.index:
                    here += sum(1 for e in walk(idx) if pred(e))
                count += mult * here
        return count

    def referenced_arrays(self) -> set[str]:
        """Names of array parameters actually read or written by the body."""
        names: set[str] = set()
        for e in expressions_of(self.body):
            if isinstance(e, Read):
                names.add(e.array)
        for s in walk_stmts(self.body):
            if isinstance(s, Store):
                names.add(s.array)
        return names

    def free_locals(self) -> set[str]:
        """Local names used before any binding (should be empty when valid)."""
        bound: set[str] = set()
        free: set[str] = set()

        def exprs_of(s):
            if isinstance(s, Assign):
                yield s.value
            elif isinstance(s, Store):
                yield from s.index
                yield s.value

        def scan(stmts):
            from repro.ir.expr import walk

            for s in stmts:
                for root in exprs_of(s):
                    for e in walk(root):
                        if isinstance(e, LocalRef) and e.name not in bound:
                            free.add(e.name)
                if isinstance(s, Assign):
                    bound.add(s.name)
                elif isinstance(s, For):
                    bound.add(s.var)
                    scan(s.body)

        scan(self.body)
        return free

    def referenced_scalars(self) -> set[str]:
        return {
            e.name for e in expressions_of(self.body) if isinstance(e, ParamRef)
        }

    def max_thread_dim(self) -> int:
        """Highest ThreadIdx dimension used, or -1 when none."""
        dims = [e.dim for e in expressions_of(self.body) if isinstance(e, ThreadIdx)]
        return max(dims, default=-1)
