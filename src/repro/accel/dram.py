"""Off-chip memory model and the §II-B decomposition motivation.

The paper motivates NTT decomposition with off-chip behaviour: "when N
is large and the elements do not all fit in the local buffer, fetching
the strided input elements exhibits irregular data access patterns with
little locality, resulting in excessive expensive accesses to the
off-chip memory".  This module quantifies that claim:

* :class:`DramModel` — bandwidth/energy of an HBM-like interface with a
  fixed burst (row-fragment) granularity; strided accesses waste the
  unused portion of every burst.
* :func:`naive_ntt_traffic` — a direct large NTT touching all N elements
  per stage with power-of-two strides: once the stride exceeds the burst,
  every element fetch drags a full burst.
* :func:`decomposed_ntt_traffic` — the four-step schedule: each dimension
  streams sequential tiles that live in on-chip SRAM while processed, so
  off-chip traffic is one read + one write of the dataset per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs

WORD_BYTES = 8


@dataclass(frozen=True)
class DramModel:
    """An HBM-ish off-chip interface."""

    bandwidth_gbps: float = 512.0
    burst_bytes: int = 64
    energy_pj_per_byte: float = 15.0  # ~2 orders above on-chip SRAM

    def transfer_ns(self, bytes_moved: int) -> float:
        return bytes_moved / self.bandwidth_gbps  # GB/s == bytes/ns

    def energy_nj(self, bytes_moved: int) -> float:
        return bytes_moved * self.energy_pj_per_byte / 1e3

    def transfer(self, buffer: np.ndarray,
                 fault_hook=None) -> "tuple[np.ndarray, float]":
        """Stream a uint64 buffer across the interface.

        Returns the received copy and the transfer time in ns.  With a
        fault hook the in-flight words are exposed to injection (site
        ``"dram"``) — the model of an upset on the link or in a DRAM
        row, which ECC on real HBM narrows but does not eliminate.
        """
        out = np.array(buffer, dtype=np.uint64)
        with obs.span("dram.transfer", cat="mem", words=out.size) as span:
            ns = self.transfer_ns(out.size * WORD_BYTES)
            if fault_hook is not None:
                fault_hook.corrupt_buffer("dram", out)
            obs.count("dram.bytes", out.size * WORD_BYTES)
            obs.observe_value("dram.transfer_ns", ns)
            span.set(ns=round(ns, 3))
        return out, ns


@dataclass(frozen=True)
class TrafficReport:
    """Off-chip bytes moved by one NTT schedule."""

    label: str
    useful_bytes: int
    burst_bytes_moved: int

    @property
    def burst_efficiency(self) -> float:
        return self.useful_bytes / self.burst_bytes_moved


def naive_ntt_traffic(n: int, sram_bytes: int,
                      dram: DramModel = DramModel()) -> TrafficReport:
    """Traffic of a direct length-``n`` NTT with strided stage access.

    Stages with stride below the burst granularity ride within bursts
    (sequential-ish); once the dataset exceeds SRAM, each strided element
    of the remaining stages costs a whole burst in and out.
    """
    if n & (n - 1) or n <= 0:
        raise ValueError(f"n must be a power of two, got {n}")
    data_bytes = n * WORD_BYTES
    useful = 0
    moved = 0
    if data_bytes <= sram_bytes:
        # Fits on chip: one read in, one write out.
        return TrafficReport("naive (fits on-chip)", 2 * data_bytes,
                             2 * data_bytes)
    words_per_burst = dram.burst_bytes // WORD_BYTES
    log_n = n.bit_length() - 1
    for stage in range(log_n):
        stride = n >> (stage + 1)
        useful += 2 * data_bytes  # read + write every element each stage
        if stride < words_per_burst:
            # Neighbouring butterfly operands share bursts.
            moved += 2 * data_bytes
        else:
            # Every operand pulls its own burst, twice (read + write).
            moved += 2 * n * dram.burst_bytes
    return TrafficReport("naive strided", useful, moved)


def decomposed_ntt_traffic(n: int, m: int, sram_bytes: int,
                           dram: DramModel = DramModel()) -> TrafficReport:
    """Traffic of the four-step schedule on ``m``-lane hardware.

    Each of the ``d`` dimensions streams the dataset sequentially once in
    and once out (tiles are SRAM-resident while processed); sequential
    streams use full bursts.
    """
    from repro.ntt.decomposition import choose_dimensions

    dims = choose_dimensions(n, m)
    data_bytes = n * WORD_BYTES
    tile_bytes = m * m * WORD_BYTES
    if tile_bytes > sram_bytes:
        raise ValueError(
            f"an {m}x{m} tile ({tile_bytes} B) must fit in SRAM "
            f"({sram_bytes} B)"
        )
    if data_bytes <= sram_bytes:
        return TrafficReport("decomposed (fits on-chip)", 2 * data_bytes,
                             2 * data_bytes)
    per_dim = 2 * data_bytes
    total = per_dim * len(dims)
    return TrafficReport(f"decomposed {len(dims)}-dim", total, total)


def decomposition_advantage(n: int, m: int, sram_bytes: int,
                            dram: DramModel = DramModel()) -> float:
    """Off-chip traffic ratio: naive strided over decomposed."""
    naive = naive_ntt_traffic(n, sram_bytes, dram)
    decomposed = decomposed_ntt_traffic(n, m, sram_bytes, dram)
    return naive.burst_bytes_moved / decomposed.burst_bytes_moved
