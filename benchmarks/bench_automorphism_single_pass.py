"""§V-C claim: "for any automorphism, data only go through the inter-lane
network once" — and what the same operation costs the baselines.

Times the compiled full-length automorphism (N = 4096 on 64 lanes)
executed on the VPU and records the pass-count comparison against the
F1-style uniform-shift network."""

import numpy as np

from conftest import record
from repro.automorphism import paper_sigma
from repro.core import VectorProcessingUnit
from repro.mapping import compile_automorphism, pack_for_ntt, unpack_columns
from repro.perf.cycles import baseline_automorphism_passes

Q = 998244353
N, M = 4096, 64


def run(vpu, prog, packed):
    vpu.memory.data[:N // M] = packed
    return vpu.run_fresh(prog)


def test_single_pass_automorphism(benchmark, results_dir):
    vpu = VectorProcessingUnit(m=M, q=Q, memory_rows=2 * N // M)
    perm = paper_sigma(N, 3)
    x = np.random.default_rng(2).integers(0, Q, N).astype(np.uint64)
    packed = pack_for_ntt(x, M)
    prog = compile_automorphism(perm, M)
    stats = benchmark(run, vpu, prog, packed)
    out = unpack_columns(vpu.memory, N, M, base_row=N // M)
    np.testing.assert_array_equal(out, perm.apply(x))
    assert stats.network_passes == N // M  # exactly one traversal/element

    ours = baseline_automorphism_passes(N, M, "ours")
    f1 = baseline_automorphism_passes(N, M, "f1")
    record(
        results_dir, "automorphism_single_pass",
        f"N={N}, m={M}: ours/BTS/ARK/SHARP = {ours} passes "
        f"(one traversal per element, 100% throughput);\n"
        f"F1 uniform-shift schedule = {f1} masked passes "
        f"({f1 / ours:.1f}x more network work).",
    )
