"""Fig. 3: dimension transposes on the shift network.

Times the compiled two-pass diagonal transpose of a 64x64 tile executed
on the VPU and records the pass accounting: 2 network traversals per
element (2m passes per tile), plus the generic router's verdict that the
Fig. 3(b) irregular patterns indeed cannot route as pure shifts (the
reason the CG stage assists on the way back)."""

import numpy as np
import pytest

from conftest import record
from repro.automorphism import RoutingConflictError, route_distance_map
from repro.core import NetworkPass, VectorProcessingUnit
from repro.mapping import compile_tile_transpose

Q = 998244353
M = 64


def run_transpose(vpu, tile, prog):
    vpu.regfile.data[2:2 + M] = tile
    vpu.execute(prog)
    return vpu.regfile.data[2 + M:2 + 2 * M].copy()


def test_fig3_transpose(benchmark, results_dir):
    vpu = VectorProcessingUnit(m=M, q=Q, regfile_entries=2 * M + 2)
    tile = np.random.default_rng(1).integers(0, Q, (M, M)).astype(np.uint64)
    prog = compile_tile_transpose(M, 2, 2 + M)
    out = benchmark(run_transpose, vpu, tile, prog)
    np.testing.assert_array_equal(out, tile.T)
    assert len(prog) == prog.count(NetworkPass) == 2 * M

    # Fig. 3(b): the irregular return-transpose distances (example: a
    # column needing shifts 0,1,3,0) cannot route as shifts alone.
    with pytest.raises(RoutingConflictError):
        route_distance_map(4, np.array([0, 1, 3, 0]))

    record(
        results_dir, "fig3_transpose",
        f"64x64 tile transpose: {len(prog)} network passes "
        f"(2 per element-row, as derived in §IV-A);\n"
        f"irregular Fig.3(b) pattern [0,1,3,0]: RoutingConflictError -> "
        f"CG-assisted pass required, matching the paper.",
    )
