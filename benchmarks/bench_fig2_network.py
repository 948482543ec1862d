"""Fig. 2 structure claims: the inter-lane network's stage/control-bit
counts and single-traversal latency.

Times one full automorphism network traversal at m = 64 (the mux-level
behavioral model) and records the structural facts the figure asserts:
8 stages at m = 64, CG merging at m = 4, m-1 shift control bits, and a
~2 kbit pre-generated control table."""

import numpy as np

from conftest import record
from repro.automorphism import affine_controls, control_table_size_bits
from repro.core import InterLaneNetwork, NetworkConfig


def traverse_once(net, x, config):
    return net.traverse(x, config)


def render() -> str:
    lines = []
    for m in [4, 8, 16, 32, 64, 128, 256]:
        net = InterLaneNetwork(m)
        lines.append(
            f"m={m:3d}: stages={net.stage_count:2d} "
            f"(CG {'merged' if net.merged_cg else 'x2':>6s} + "
            f"{m.bit_length() - 1} shift), live control bits="
            f"{net.control_bit_count:3d}, table={control_table_size_bits(m)} b"
        )
    return "\n".join(lines)


def test_control_table_artifact(benchmark, results_dir):
    """Reproduce the authors' open-sourced artifact: the full pre-
    generated control table for m = 64 (all 32 distinct automorphisms,
    63 bits each — the ~2 kbit SRAM of §IV-B), verified to route."""
    from repro.automorphism import AffinePermutation, affine_controls

    m = 64
    net = InterLaneNetwork(m)
    table = benchmark(
        lambda: {k: affine_controls(m, k) for k in range(1, m, 2)})
    lines = [f"pre-generated automorphism control table, m={m} "
             f"({len(table)} entries x {m - 1} bits):"]
    for k, controls in sorted(table.items()):
        word = "".join(
            "".join(str(b) for b in controls.group_bits[bi])
            for bi in reversed(range(len(controls.group_bits))))
        lines.append(f"  k={k:2d}: {word}")
        out = net.traverse(np.arange(m), NetworkConfig(shift=controls))
        assert np.array_equal(out, AffinePermutation(m, k).apply(np.arange(m)))
    record(results_dir, "control_table_m64", "\n".join(lines))


def test_fig2_network(benchmark, results_dir):
    m = 64
    net = InterLaneNetwork(m)
    x = np.random.default_rng(0).integers(0, 1 << 30, m).astype(np.uint64)
    config = NetworkConfig(shift=affine_controls(m, 5))
    out = benchmark(traverse_once, net, x, config)
    assert len(out) == m
    assert net.stage_count == 8
    assert net.control_bit_count == 2 + 63
    assert control_table_size_bits(64) == 2016  # ~2 kbit, §IV-B
    record(results_dir, "fig2_network_structure", render())
