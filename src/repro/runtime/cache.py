"""CompileCache: memoised compilation for both routes.

Every frame of the paper's 300-frame experiments runs the *same* two
compiled programs, yet the seed reproduction recompiled per use.  The
cache keys each route on everything that determines its output:

* **SaC**: the source text, the entry function and every field of
  :class:`~repro.sac.backend.CompileOptions` (target, optimisation flags,
  wrap splitting, lint, transfer placement, the ``repro.opt``
  configuration) — a changed flag is a changed key, so ablations never
  see stale programs;
* **ArrayOL/Gaspard2**: the application model, the MARTE allocation and
  the transformation-chain configuration (pass names + lint + transfer
  placement + the ``repro.opt`` configuration).

Keys are content digests, so two textually identical sources share an
entry regardless of identity.  Hit/miss/invalidation counts are kept in
:class:`CacheStats` — the ``repro pipeline`` report shows them, and the
acceptance gate requires >= frames-1 hits per route over a video run.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.obs.span import current_tracer

__all__ = [
    "CacheStats",
    "CompileCache",
    "canonical",
    "sac_key",
    "gaspard_key",
    "gaspard_chain_key",
    "tune_eval_key",
    "tune_record_key",
]


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def canonical(value) -> str:
    """A content-complete canonical serialisation for cache keys.

    ``repr()`` is *not* content-complete: ``numpy.ndarray.__repr__``
    elides large arrays with ``...``, so two models differing only inside
    a big array repr identically — and would digest to the same cache key,
    serving a stale compiled program.  This serialiser recurses
    dataclasses, containers and ndarrays (shape + dtype + a digest of the
    raw bytes) and names callables by module/qualname (their repr embeds
    a memory address, which is unstable across runs).
    """
    if isinstance(value, np.ndarray):
        payload = hashlib.sha256(
            np.ascontiguousarray(value).tobytes()
        ).hexdigest()
        return (
            f"ndarray(shape={tuple(value.shape)},dtype={value.dtype.str},"
            f"sha256={payload})"
        )
    if isinstance(value, np.generic):
        return f"{type(value).__name__}({value!r})"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, tuple):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(
            (canonical(k), canonical(v)) for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "set{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if value is None or isinstance(value, (bool, int, float, complex, str, bytes)):
        return repr(value)
    if callable(value):
        module = getattr(value, "__module__", "?")
        qualname = getattr(value, "__qualname__", type(value).__qualname__)
        return f"callable:{module}.{qualname}"
    return repr(value)


def sac_key(source: str, entry: str, options) -> tuple:
    """Cache key of one SaC compilation (source x entry x options)."""
    return ("sac", entry, _digest(source, canonical(options)))


def gaspard_key(
    model,
    allocation,
    chain_passes=(),
    lint: bool = False,
    opt=None,
    transfers: str = "boundary",
) -> tuple:
    """Cache key of one Gaspard2 chain run (model x allocation x chain).

    ``opt`` and ``transfers`` reconfigure the chain's emitted program, so
    they are part of the content key — toggling the optimiser can never
    serve a stale unoptimised program (the SaC route gets the same
    guarantee through ``canonical(CompileOptions)`` in :func:`sac_key`).
    """
    return (
        "gaspard",
        _digest(
            canonical(model),
            canonical(allocation),
            canonical(tuple(chain_passes)),
            canonical(bool(lint)),
            canonical(opt),
            canonical(transfers),
        ),
    )


def gaspard_chain_key(
    model, allocation, lint: bool = False, opt=None, transfers: str = "boundary"
) -> tuple:
    """The :func:`gaspard_key` of one :meth:`CompileCache.compile_gaspard`
    call: the chain's pass names are those of its standard chain."""
    from repro.arrayol.transform import standard_chain

    chain = standard_chain(lint=lint, opt=opt, transfers=transfers)
    return gaspard_key(
        model, allocation, (p.name for p in chain.passes), lint,
        opt=opt, transfers=transfers,
    )


def tune_eval_key(app: str, route: str, size, config) -> tuple:
    """Cache key of one tuner cost evaluation.

    ``config`` is a :class:`repro.tune.TuneConfig` dataclass; its
    :func:`canonical` serialisation recurses *every* field — the
    ``OptOptions`` (toggles **and** tail-pass order), transfer placement,
    pipeline depth, paving granularity and fleet placement policy — so two
    configurations differing in any single tuned knob can never collide.
    """
    return ("tune-eval", app, route, _digest(canonical(size), canonical(config)))


def tune_record_key(app: str, route: str, size) -> tuple:
    """Cache key of the winning tuning record for one (app, route, size)."""
    return ("tune-record", app, route, _digest(canonical(size)))


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters of a :class:`CompileCache`."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.invalidations)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            invalidations=self.invalidations - earlier.invalidations,
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


class CompileCache:
    """Memoises compilation results under explicit content keys."""

    def __init__(self) -> None:
        self._entries: dict[tuple, Any] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get_or_compile(self, key: tuple, builder: Callable[[], Any]) -> Any:
        """Return the cached artefact for ``key``, building it on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            with current_tracer().span(
                f"compile:{key[0]}", category="compile", cache="miss"
            ):
                value = self._entries[key] = builder()
        else:
            self.stats.hits += 1
            current_tracer().event(
                f"compile:{key[0]}", category="compile", cache="hit"
            )
        return value

    def store(self, key: tuple, value: Any) -> Any:
        """Insert (or overwrite) an artefact under an explicit key.

        The tuner's write path: cost evaluations and winning tuning
        records are deposited here so later searches and AOT consumers
        can :meth:`peek` them without recomputing.
        """
        self._entries[key] = value
        return value

    def peek(self, key: tuple, default: Any = None) -> Any:
        """Return the artefact under ``key`` without building on miss.

        Counts as a lookup (hit or miss) in :attr:`stats`.
        """
        if key in self._entries:
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return default

    def invalidate(self, key: tuple) -> bool:
        """Drop one entry; returns whether it existed."""
        if key in self._entries:
            del self._entries[key]
            self.stats.invalidations += 1
            return True
        return False

    def clear(self) -> int:
        """Drop every entry; returns how many were invalidated."""
        n = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += n
        return n

    # -- route-specific conveniences ----------------------------------------

    def compile_sac(self, source: str, entry: str, options=None):
        """Parse + compile a SaC source through the cache.

        Returns the :class:`~repro.sac.backend.CompiledFunction`; CUDA
        programs are validated once on miss.
        """
        from repro.sac.backend import CompileOptions, compile_function
        from repro.sac.parser import parse

        options = CompileOptions() if options is None else options

        def build():
            cf = compile_function(parse(source), entry, options)
            if options.target == "cuda":
                from repro.ir.validate import validate_program

                validate_program(cf.program)
            return cf

        return self.get_or_compile(sac_key(source, entry, options), build)

    def compile_gaspard(
        self, model, allocation, lint: bool = False, opt=None,
        transfers: str = "boundary", key: tuple | None = None,
    ):
        """Run the Gaspard2 chain through the cache.

        Returns ``(ctx, chain)`` — the transformed
        :class:`~repro.arrayol.transform.GaspardContext` and the chain that
        produced it (for its trace).  ``key`` is the
        :func:`gaspard_chain_key` of exactly these arguments, for a caller
        that already holds it: canonicalising a model costs milliseconds,
        a lookup by a held key microseconds.
        """
        from repro.arrayol.transform import GaspardContext, standard_chain
        from repro.ir.validate import validate_program

        chain_probe = standard_chain(lint=lint, opt=opt, transfers=transfers)
        if key is None:
            key = gaspard_chain_key(
                model, allocation, lint=lint, opt=opt, transfers=transfers
            )

        def build():
            ctx = GaspardContext(model=model, allocation=allocation)
            ctx = chain_probe.run(ctx)
            validate_program(ctx.program)
            return (ctx, chain_probe)

        return self.get_or_compile(key, build)
