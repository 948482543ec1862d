"""Flagship integration bench: CKKS running entirely on the VPU model.

A homomorphic multiplication at the paper's polynomial degree (N = 4096,
matching the 64-lane VPU's native 64x64 decomposition) where *every*
NTT and automorphism kernel executes through the mux-level inter-lane
network — then checked bit-for-bit against the numpy path.

Also executes the Table III N = 2^18 row live: a 64^3 three-dimensional
NTT compiled and run on the 64-lane VPU, instruction counts matching the
analytic cycle model exactly."""

import numpy as np
import pytest

from conftest import record
from repro.core import NttStage, VectorProcessingUnit
from repro.core.isa import NetworkPass
from repro.fhe.backend import VpuBackend, use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams
from repro.mapping import compile_ntt, pack_for_ntt, required_registers
from repro.perf.cycles import ntt_cycle_model

Q = 998244353


def test_ckks_hmult_on_vpu(benchmark, results_dir):
    params = CkksParams(n=4096, levels=2, scale_bits=27, prime_bits=30)
    rng = np.random.default_rng(3)
    z1 = rng.uniform(-1, 1, params.slots)
    z2 = rng.uniform(-1, 1, params.slots)

    # Reference on numpy kernels.
    ctx = CkksContext(params, seed=21)
    ref = ctx.multiply(ctx.encrypt(z1), ctx.encrypt(z2))

    backend = VpuBackend(m=64)

    def on_vpu():
        with use_backend(backend):
            ctx2 = CkksContext(params, seed=21)
            return ctx2.multiply(ctx2.encrypt(z1), ctx2.encrypt(z2)), ctx2

    (ct, ctx2) = benchmark.pedantic(on_vpu, rounds=1, iterations=1)
    for p_ref, p_vpu in zip(ref.parts, ct.parts):
        np.testing.assert_array_equal(p_ref.residues, p_vpu.residues)
    with use_backend(backend):
        out = ctx2.decrypt(ct)
    np.testing.assert_allclose(out.real, (z1 * z2), atol=2e-3)
    record(
        results_dir, "fhe_on_vpu",
        f"CKKS HMult at N=4096 with every NTT/automorphism kernel executed "
        f"on the 64-lane VPU model:\n"
        f"  {backend.kernel_invocations} kernel invocations, ciphertext "
        f"bit-identical to the numpy path.",
    )


def test_table3_row_2pow18_live(benchmark, results_dir):
    """Execute the N = 2^18 = 64^3 NTT on the 64-lane VPU — the exact
    configuration of Table III's best row — and check the cycle model."""
    m, n = 64, 1 << 18
    vpu = VectorProcessingUnit(m=m, q=Q,
                               regfile_entries=required_registers(m),
                               memory_rows=n // m)
    x = np.random.default_rng(0).integers(0, Q, n, dtype=np.uint64)
    vpu.memory.data[:n // m] = pack_for_ntt(x, m)
    prog = compile_ntt(n, m)

    stats = benchmark.pedantic(lambda: vpu.run_fresh(prog),
                               rounds=1, iterations=1)
    model = ntt_cycle_model(n, m)
    assert stats.by_type["NttStage"] == model.compute_cycles
    assert stats.by_type["NetworkPass"] == model.network_only_cycles
    # Full output verification against the vectorized reference.
    from repro.mapping import unpack_ntt_result
    from repro.ntt import vec_ntt_dif
    from repro.ntt.tables import get_tables

    t = get_tables(n, Q)
    expected = np.empty(n, dtype=np.uint64)
    expected[t.bitrev] = vec_ntt_dif(x, t)
    assert np.array_equal(unpack_ntt_result(vpu.memory, n, m), expected)
    record(
        results_dir, "table3_2pow18_live",
        f"N=2^18 on 64 lanes executed live: {stats.cycles} instructions, "
        f"{model.compute_cycles} fused NTT stages + "
        f"{model.network_only_cycles} transpose passes "
        f"-> {100 * model.utilization:.2f}% utilization "
        f"(paper: 81.81%).",
    )
