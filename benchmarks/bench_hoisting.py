"""Hoisted rotations: the shared-decomposition optimization, measured
functionally and scheduled on the accelerator.

Bootstrapping's BSGS phases rotate one ciphertext by many amounts; the
digit decomposition (an NTT batch) can be hoisted out of the loop, and
each additional rotation then rides on single-pass automorphisms — the
operation the paper's network makes cheap."""

import numpy as np
import pytest

from conftest import record
from repro.accel import Accelerator
from repro.fhe.ckks import CkksContext
from repro.fhe.params import toy_params

STEPS = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def ctx():
    context = CkksContext(toy_params(), seed=91)
    context.generate_galois_keys(STEPS)
    return context


def test_hoisted_rotations(benchmark, ctx, results_dir):
    z = np.random.default_rng(0).uniform(-1, 1, ctx.params.slots)
    ct = ctx.encrypt(z)
    results = benchmark(ctx.rotate_hoisted, ct, STEPS)
    for steps, out in zip(STEPS, results):
        np.testing.assert_allclose(ctx.decrypt(out).real, np.roll(z, -steps),
                                   atol=3e-3)

    acc = Accelerator(num_vpus=8, lanes=64)
    n, level = 4096, 5
    individual = len(STEPS) * Accelerator.total_makespan(
        acc.schedule_hrot(n, level))
    hoisted = Accelerator.total_makespan(
        acc.schedule_hrot(n, level, rotations=len(STEPS)))
    record(
        results_dir, "hoisting",
        f"{len(STEPS)} rotations of one ciphertext (N={n}, level {level}) "
        f"on an 8-VPU chip:\n"
        f"  individual : {individual} cycles\n"
        f"  hoisted    : {hoisted} cycles  "
        f"({individual / hoisted:.2f}x faster — one digit decomposition "
        f"instead of {len(STEPS)})",
    )
    assert hoisted < individual


def test_individual_rotations_baseline(benchmark, ctx):
    z = np.random.default_rng(1).uniform(-1, 1, ctx.params.slots)
    ct = ctx.encrypt(z)

    def rotate_all():
        return [ctx.rotate(ct, s) for s in STEPS]

    results = benchmark(rotate_all)
    for steps, out in zip(STEPS, results):
        np.testing.assert_allclose(ctx.decrypt(out).real, np.roll(z, -steps),
                                   atol=3e-3)
