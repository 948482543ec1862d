#!/usr/bin/env python3
"""Quickstart: the unified VPU in five minutes.

Builds a 64-lane VPU, runs a 4096-point NTT and a full-length
automorphism through the mux-level inter-lane network, verifies both
against golden models, and prints the headline area/power comparison.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.automorphism import paper_sigma
from repro.baselines import f1_network_cost
from repro.core import VectorProcessingUnit
from repro.hwmodel import our_network_cost, vpu_cost
from repro.mapping import (
    compile_automorphism,
    compile_ntt,
    pack_for_ntt,
    required_registers,
    unpack_columns,
    unpack_ntt_result,
)
from repro.ntt import vec_ntt_dif
from repro.ntt.tables import get_tables

Q = 998244353  # a 30-bit NTT prime
N, M = 4096, 64


def main() -> None:
    vpu = VectorProcessingUnit(m=M, q=Q,
                               regfile_entries=required_registers(M),
                               memory_rows=2 * N // M)
    rng = np.random.default_rng(0)
    x = rng.integers(0, Q, N, dtype=np.uint64)

    # --- NTT: decomposed into two 64-point dimensions, butterflies on the
    # CG network stage, transposes on the shift stages (paper §IV-A).
    vpu.memory.data[:N // M] = pack_for_ntt(x, M)
    stats = vpu.run_fresh(compile_ntt(N, M))
    got = unpack_ntt_result(vpu.memory, N, M)
    tables = get_tables(N, Q)
    expected = np.empty(N, dtype=np.uint64)
    expected[tables.bitrev] = vec_ntt_dif(x, tables)
    assert np.array_equal(got, expected), "NTT mismatch!"
    busy = stats.multiplier_busy
    active = stats.cycles - stats.loads - stats.stores
    print(f"NTT-{N} on {M} lanes: OK   "
          f"({stats.by_type['NttStage']} fused stages, "
          f"{stats.by_type.get('NetworkPass', 0)} transpose passes, "
          f"{100 * busy / active:.1f}% lane utilization)")

    # --- Automorphism: sigma_{5,3} in one network traversal per element
    # (paper §IV-B).
    sigma = paper_sigma(N, 3)
    vpu.memory.data[:N // M] = pack_for_ntt(x, M)
    stats = vpu.run_fresh(compile_automorphism(sigma, M))
    out = unpack_columns(vpu.memory, N, M, base_row=N // M)
    assert np.array_equal(out, sigma.apply(x)), "automorphism mismatch!"
    print(f"automorphism sigma_(5,3) on {N} elements: OK   "
          f"({stats.network_passes} passes = N/m, one traversal per element)")

    # --- The headline numbers (paper Table II).
    ours = our_network_cost(M)
    f1 = f1_network_cost(M)
    ra, rp = f1.ratio_to(ours)
    va, vp = vpu_cost(M, f1).ratio_to(vpu_cost(M, ours))
    print(f"inter-lane network vs F1-style unit: {ra:.1f}x area, "
          f"{rp:.1f}x power savings")
    print(f"whole VPU: {va:.2f}x area, {vp:.2f}x power savings")


if __name__ == "__main__":
    main()
