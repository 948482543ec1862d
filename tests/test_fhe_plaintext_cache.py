"""The CKKS context's plaintext cache: ``multiply_plain``, ``add_plain``
and ``match_scale`` encode each constant once per context, and a hit is
the fresh encode byte for byte."""

import numpy as np
import pytest

from repro.accel.dram import DramModel
from repro.fault.injector import FaultInjector, use_fault_hook
from repro.fhe import ckks
from repro.fhe.backend import IntegrityBackend, NumpyBackend, VpuBackend, \
    use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params
from repro.kernels import CompiledBackend, resolve_provider


def _ctx(seed=11):
    return CkksContext(toy_params(), seed=seed)


def _slots(ctx, seed):
    rng = np.random.default_rng(seed)
    n = ctx.params.slots
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


BACKENDS = {"numpy": NumpyBackend, "compiled": CompiledBackend,
            "vpu": lambda: VpuBackend(m=16)}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_hit_is_the_fresh_encode(name):
    if name == "compiled" and resolve_provider() is None:
        pytest.skip("no compiled provider available (needs a C compiler)")
    with use_backend(BACKENDS[name]()):
        ctx = _ctx()
        ct = ctx.encrypt(_slots(ctx, 1))
        values = _slots(ctx, 2)
        first = ctx._plaintext(values, ct.level)
        hit = ctx._plaintext(values.copy(), ct.level)
        fresh, _ = ctx.encoder.encode(values, level=ct.level)
        assert hit is first and len(ctx.plaintexts) == 1
        assert hit.residues.tobytes() == fresh.residues.tobytes()
        assert hit.primes == fresh.primes and hit.is_eval
        # multiply_plain (a hit) is the product with the fresh encode.
        out = ctx.multiply_plain(ct, values, rescale_after=False)
        for got, part in zip(out.parts, ct.parts):
            assert got.residues.tobytes() == (part * fresh).residues.tobytes()


def test_a_hit_is_read_only():
    ctx = _ctx()
    poly = ctx._plaintext(_slots(ctx, 3), 2)
    with pytest.raises(ValueError):
        poly.residues[0, 0] = 1
    assert ctx._plaintext(_slots(ctx, 3), 2) is poly


def test_level_scale_and_values_each_key_an_entry():
    ctx = _ctx()
    values = _slots(ctx, 4)
    base = ctx._plaintext(values, 2)
    others = [ctx._plaintext(values, 1),
              ctx._plaintext(values, 2, ctx.params.scale * 2),
              ctx._plaintext(_slots(ctx, 5), 2)]
    assert len(ctx.plaintexts) == 4
    assert all(p is not base for p in others)
    assert others[0].num_limbs == 2 and base.num_limbs == 3
    assert not np.array_equal(others[1].residues, base.residues)
    # The default scale is the parameter scale: one entry.
    assert ctx._plaintext(values, 2, ctx.params.scale) is base
    # Real and complex spellings of one vector are one entry.
    real = np.linspace(-1, 1, ctx.params.slots)
    assert ctx._plaintext(real, 2) is ctx._plaintext(real + 0j, 2)


def test_the_lru_evicts_at_the_budget(monkeypatch):
    ctx = _ctx()
    entry = ctx._plaintext(_slots(ctx, 0), 2)
    size = ctx.plaintexts.nbytes
    assert size == entry.residues.nbytes + ctx.params.slots * 16
    monkeypatch.setattr(ckks, "PLAINTEXT_CACHE_BYTES", 3 * size)
    second = ctx._plaintext(_slots(ctx, 1), 2)
    ctx._plaintext(_slots(ctx, 2), 2)
    assert ctx._plaintext(_slots(ctx, 0), 2) is entry  # now most recent
    ctx._plaintext(_slots(ctx, 3), 2)  # evicts the least recent: 1
    assert len(ctx.plaintexts) == 3 and ctx.plaintexts.nbytes == 3 * size
    assert ctx._plaintext(_slots(ctx, 0), 2) is entry
    assert ctx._plaintext(_slots(ctx, 1), 2) is not second
    # An entry above the whole budget is returned and not kept.
    monkeypatch.setattr(ckks, "PLAINTEXT_CACHE_BYTES", size - 1)
    ctx._plaintext(_slots(ctx, 9), 2)
    assert len(ctx.plaintexts) == 0 and ctx.plaintexts.nbytes == 0


def _dram_exposures(calls):
    """DRAM staging operations an IntegrityBackend sees over ``calls``
    multiply_plain calls with one constant, under an installed hook."""
    backend = IntegrityBackend(NumpyBackend(), "detect", dram=DramModel())
    injector = FaultInjector(())
    with use_backend(backend):
        ctx = _ctx()
        ct = ctx.encrypt(_slots(ctx, 6))
        values = _slots(ctx, 7)
        with use_fault_hook(injector):
            outs = [ctx.multiply_plain(ct, values) for _ in range(calls)]
    assert len(ctx.plaintexts) == 0
    return injector.exposures.get("dram", 0), outs


def test_a_fault_hook_bypasses_the_cache():
    one, [single] = _dram_exposures(1)
    three, outs = _dram_exposures(3)
    assert one > 0 and three == 3 * one
    for out in outs:
        for a, b in zip(out.parts, single.parts):
            assert np.array_equal(a.residues, b.residues)
