"""Dimension transposes on the shift network (paper Fig. 3a).

The two-pass diagonal method transposes an ``m x m`` tile held in ``m``
register rows using nothing but uniform cyclic shifts and the per-lane
register addressing of the lanes' private register files:

* **Pass 1** (column -> diagonal): row ``r`` rotates down by ``r`` and is
  written back in place, leaving ``reg[r][l] = in[r][(l - r) mod m]``.
* **Pass 2** (diagonal -> row): output row ``r'`` performs a diagonal
  read — lane ``l`` fetches register ``(l - r') mod m`` — and rotates up
  by ``r'``, yielding ``out[r'][l] = in[l][r']``.

Each element traverses the network exactly twice, so a full tile costs
``2m`` network passes: the "multiple times" of §V-C that bounds NTT
throughput utilization below 100%.
"""

from __future__ import annotations

from functools import lru_cache

from repro.automorphism.controls import uniform_shift_controls
from repro.core.isa import NetworkPass, Program
from repro.core.network import NetworkConfig


def compile_tile_transpose(m: int, src_base: int, dst_base: int,
                           program: Program | None = None) -> Program:
    """Emit the 2m-pass transpose of the tile at ``src_base``.

    The tile occupies registers ``[src_base, src_base + m)`` (row ``r``
    across the lanes) and is left **modified** (diagonal form); the
    transposed tile lands in ``[dst_base, dst_base + m)``.  The two
    windows may not overlap.
    """
    if m < 4 or m & (m - 1):
        raise ValueError(f"m must be a power of two >= 4, got {m}")
    if abs(src_base - dst_base) < m:
        raise ValueError("source and destination tile windows overlap")
    prog = program if program is not None else Program(label=f"transpose {m}x{m}")
    # Pass 1: shift row r down by r, in place (column -> diagonal).
    for r in range(m):
        prog.append(NetworkPass(
            dst=src_base + r,
            src=src_base + r,
            config=NetworkConfig(shift=uniform_shift_controls(m, r)),
        ))
    # Pass 2: diagonal read + shift up by r' (diagonal -> row).
    for r in range(m):
        prog.append(NetworkPass(
            dst=dst_base + r,
            src=src_base,
            config=NetworkConfig(shift=uniform_shift_controls(m, (m - r) % m)),
            src_rot=(-r) % m,
            src_window=m,
        ))
    return prog


def tile_transpose_pass_count(m: int) -> int:
    """Network passes needed per m x m tile: always 2m."""
    return 2 * m


@lru_cache(maxsize=None)
def group_shift_controls(m: int, group: int, amount: int):
    """Controls for a *group-local* cyclic shift: each block of ``group``
    lanes rotates internally by ``amount``.

    This is the affine routing theorem applied modulo ``group``: the
    per-element distances depend only on ``lane mod group``, so
    co-control consistency holds and one traversal suffices.  Used by the
    packed (ragged-dimension) transposes.
    """
    import numpy as np

    from repro.automorphism.controls import route_distance_map

    if group < 2 or group > m or group & (group - 1) or m % group:
        raise ValueError(f"bad group {group} for m={m}")
    lanes = np.arange(m)
    u = lanes % group
    dest_u = (u + amount) % group
    distances = (dest_u - u) % m
    return route_distance_map(m, distances)


def compile_packed_transpose(m: int, c: int, src_base: int, dst_base: int,
                             program: Program | None = None) -> Program:
    """Transpose between the full-width and packed layouts (ragged dims).

    The tile of ``c`` register rows (row ``j2``, lane ``p = g*c + u``)
    becomes the packed layout: row ``r'``, lane ``g*c + j2`` holds the
    element from source ``(j2, p = g*c + r')`` — per lane-group ``g`` an
    independent ``c x c`` square transpose, done with the two-pass
    diagonal method using group-local shifts and window-``c`` diagonal
    reads.  Being a square transpose per group, the movement is an
    involution: the same program converts packed back to full-width.

    Every element traverses the network exactly twice, the same count as
    the full-width transpose — with this layout choice the CG stage never
    needs to assist (cf. the paper's Fig. 3b, whose layout does).
    """
    if c < 2 or c >= m or c & (c - 1) or m % c:
        raise ValueError(f"packed transpose needs c | m, power of two, "
                         f"2 <= c < m; got c={c}, m={m}")
    if abs(src_base - dst_base) < c:
        raise ValueError("source and destination tile windows overlap")
    prog = program if program is not None else Program(
        label=f"packed-transpose {c}x{m}")
    for r in range(c):
        # Pass 1: group-local shift by +r, in place.
        prog.append(NetworkPass(
            dst=src_base + r,
            src=src_base + r,
            config=NetworkConfig(shift=group_shift_controls(m, c, r)),
        ))
    for r in range(c):
        # Pass 2: window-c diagonal read + group-local shift by -r.
        prog.append(NetworkPass(
            dst=dst_base + r,
            src=src_base,
            config=NetworkConfig(shift=group_shift_controls(m, c, (c - r) % c)),
            src_rot=(-r) % c,
            src_window=c,
        ))
    return prog
