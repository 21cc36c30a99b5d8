"""CompileCache: keying, hit/miss/invalidation accounting."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.apps.downscaler import CIF, HD
from repro.apps.downscaler.arrayol_model import downscaler_allocation, downscaler_model
from repro.runtime import CompileCache, canonical, gaspard_key, sac_key
from repro.runtime.cache import gaspard_chain_key
from repro.sac.backend import CompileOptions

SRC = (
    "int[32] f(int[32] a) { b = with { (. <= iv <= .) : a[iv] + 1; } "
    ": genarray([32]); return b; }"
)


def test_sac_hit_on_repeat():
    cache = CompileCache()
    first = cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    second = cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    assert second is first  # memoised artefact, not a recompilation
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == pytest.approx(0.5)
    assert len(cache) == 1


def test_sac_key_covers_source_entry_and_options():
    cache = CompileCache()
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    # any changed compile input is a distinct key -> a miss
    cache.compile_sac(SRC + " ", "f", CompileOptions(target="cuda"))
    cache.compile_sac(SRC, "f", CompileOptions(target="seq"))
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda", lint=True))
    assert cache.stats.misses == 4
    assert cache.stats.hits == 0
    assert len(cache) == 4


def test_key_functions_are_content_digests():
    opts = CompileOptions(target="cuda")
    assert sac_key(SRC, "f", opts) == sac_key(str(SRC), "f", opts)
    assert sac_key(SRC, "f", opts) != sac_key(SRC, "g", opts)
    model, alloc = downscaler_model(CIF), downscaler_allocation()
    assert gaspard_key(model, alloc) == gaspard_key(downscaler_model(CIF), alloc)
    assert gaspard_key(model, alloc) != gaspard_key(downscaler_model(HD), alloc)
    assert gaspard_key(model, alloc) != gaspard_key(model, alloc, lint=True)


@dataclass
class _ArrayModel:
    """A model-like dataclass carrying a large coefficient array."""

    name: str
    weights: np.ndarray


def test_keys_see_inside_large_arrays():
    """Regression: keys were digests of ``repr()``, and ndarray repr
    elides big arrays with ``...`` — two models differing only mid-array
    printed identically and collided onto one cache entry.  The canonical
    serialiser digests the raw bytes, so they key apart."""
    a = _ArrayModel("m", np.zeros(100_000, dtype=np.int32))
    b = _ArrayModel("m", np.zeros(100_000, dtype=np.int32))
    b.weights[50_000] = 7  # invisible to repr: elided by '...'
    assert repr(a) == repr(b)  # the exact collision the old keys digested
    assert canonical(a) != canonical(b)
    assert gaspard_key(a, allocation=None) != gaspard_key(b, allocation=None)


def test_canonical_is_content_complete():
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    # equal content -> equal serialisation, regardless of identity
    assert canonical(arr) == canonical(arr.copy())
    # shape and dtype are part of the content
    assert canonical(arr) != canonical(arr.ravel())
    assert canonical(arr) != canonical(arr.astype(np.float32))
    # non-contiguous views serialise by content, not memory layout
    base = np.arange(12, dtype=np.int32)
    assert canonical(base[::2]) == canonical(base[::2].copy())
    # containers recurse; dict ordering is canonicalised
    assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})
    assert canonical((1, "x")) != canonical([1, "x"])
    # callables key by qualified name, not their address-bearing repr
    assert canonical(len) == canonical(len)
    assert "0x" not in canonical(test_canonical_is_content_complete)


def test_gaspard_hit_on_repeat():
    cache = CompileCache()
    ctx1, chain1 = cache.compile_gaspard(downscaler_model(CIF), downscaler_allocation())
    ctx2, _ = cache.compile_gaspard(downscaler_model(CIF), downscaler_allocation())
    assert ctx2 is ctx1
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert ctx1.program.launch_count > 0
    assert chain1.trace  # the producing chain rides along for its trace


def test_gaspard_chain_key_is_the_key_compile_gaspard_stores():
    cache = CompileCache()
    model, alloc = downscaler_model(CIF), downscaler_allocation()
    cache.compile_gaspard(model, alloc, transfers="per_kernel")
    assert gaspard_chain_key(model, alloc, transfers="per_kernel") in cache
    assert gaspard_chain_key(model, alloc) not in cache
    # a held key looks the same entry up
    key = gaspard_chain_key(model, alloc, transfers="per_kernel")
    cache.compile_gaspard(model, alloc, transfers="per_kernel", key=key)
    assert (cache.stats.hits, cache.stats.misses, len(cache)) == (1, 1, 1)


def test_invalidate_and_clear():
    cache = CompileCache()
    key = sac_key(SRC, "f", CompileOptions(target="cuda"))
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    assert key in cache
    assert cache.invalidate(key)
    assert not cache.invalidate(key)  # already gone
    assert key not in cache
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    assert cache.stats.misses == 2  # recompiled after invalidation
    assert cache.clear() == 1
    assert cache.stats.invalidations == 2
    assert len(cache) == 0


def test_stats_snapshot_and_delta():
    cache = CompileCache()
    cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    before = cache.stats.snapshot()
    for _ in range(5):
        cache.compile_sac(SRC, "f", CompileOptions(target="cuda"))
    delta = cache.stats.since(before)
    assert (delta.hits, delta.misses, delta.invalidations) == (5, 0, 0)
    assert delta.hit_rate == pytest.approx(1.0)
    d = delta.as_dict()
    assert d["hits"] == 5 and d["hit_rate"] == 1.0
