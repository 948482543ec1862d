"""Deterministic fault-injection campaigns over the behavioral model.

A campaign sweeps fault **site x kind x cycle x bit** with a seeded RNG:
every injection builds a fresh workload backend, installs a one-fault
:class:`~repro.fault.injector.FaultInjector`, runs the workload under
the configured :class:`~repro.fault.policy.IntegrityPolicy`, and
classifies the outcome against a pre-computed golden result
(``masked`` / ``corrected`` / ``detected`` / ``silent`` / ``crash`` —
see :mod:`repro.fault.report`).

Workloads:

* ``vpu-ntt`` — an ``(L, n)`` negacyclic NTT batch executed on the
  behavioral VPU behind :class:`~repro.fhe.backend.IntegrityBackend`,
  with DRAM staging attached.  Covers the register-file, mux-network,
  lane-ALU, scratchpad and DRAM sites.
* ``keyswitch`` — a full digit-decomposition keyswitch on the toy CKKS
  ring, covering the spare-modulus (``keyswitch``) site.

Everything is seeded: equal configs produce byte-identical report JSON
(:func:`audit_determinism` asserts exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.accel.dram import DramModel
from repro.fault.injector import (
    CORE_SITES,
    KINDS,
    FaultInjector,
    FaultSpec,
    SITE_ALU,
    SITE_DRAM,
    SITE_KEYSWITCH,
    SITE_NETWORK,
    SITE_REGFILE,
    SITE_SRAM,
    install_fault_hook,
)
from repro.fault.policy import IntegrityPolicy
from repro.fault.report import FaultEvent, FaultReport
from repro.fhe.backend import (
    IntegrityBackend,
    NumpyBackend,
    VpuBackend,
    use_backend,
)
from repro.ntt.negacyclic import NegacyclicNtt


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign, fully determined (the seed covers spec generation,
    workload data, and the ABFT weight vectors)."""

    workload: str = "vpu-ntt"
    policy: IntegrityPolicy = IntegrityPolicy.DETECT_RETRY
    seed: int = 2025
    injections: int = 200
    n: int = 64
    m: int = 16
    limbs: int = 3
    prime_bits: int = 28
    sites: tuple[str, ...] = CORE_SITES
    max_retries: int = 2
    quarantine_threshold: int = 2


def smoke_config(**overrides) -> CampaignConfig:
    """The CI smoke campaign: small ring, ~200 injections, core sites."""
    return replace(CampaignConfig(), **overrides)


def deep_config(**overrides) -> CampaignConfig:
    """A wider sweep: more injections and the DRAM staging site."""
    base = CampaignConfig(injections=600, sites=CORE_SITES + (SITE_DRAM,))
    return replace(base, **overrides)


def keyswitch_config(**overrides) -> CampaignConfig:
    """Spare-modulus channel campaign on the toy CKKS keyswitch."""
    base = CampaignConfig(workload="keyswitch", injections=48, n=256,
                          sites=(SITE_KEYSWITCH,))
    return replace(base, **overrides)


# -- workloads ---------------------------------------------------------------


class _VpuNttWorkload:
    """An (L, n) negacyclic NTT batch on the VPU behind the integrity
    layer, inputs staged through the DRAM model."""

    sites = CORE_SITES + (SITE_DRAM,)

    def __init__(self, config: CampaignConfig, rng: np.random.Generator):
        from repro.arith.primes import find_ntt_primes

        self.config = config
        self.primes = tuple(find_ntt_primes(2 * config.n, config.prime_bits,
                                            config.limbs))
        self.q = self.primes[0]
        self.rows = np.stack([
            rng.integers(0, q, size=config.n, dtype=np.uint64)
            for q in self.primes
        ])
        self.golden = np.stack([
            NegacyclicNtt(config.n, q).forward(self.rows[i])
            for i, q in enumerate(self.primes)
        ])

    def make_backend(self) -> IntegrityBackend:
        c = self.config
        return IntegrityBackend(
            VpuBackend(c.m), c.policy, seed=c.seed,
            max_retries=c.max_retries,
            quarantine_threshold=c.quarantine_threshold, dram=DramModel())

    def attach(self, backend: IntegrityBackend,
               injector: FaultInjector | None) -> None:
        backend.inner.vpu.install_fault_hook(injector)

    def run(self, backend: IntegrityBackend) -> np.ndarray:
        return backend.forward_ntt_batch(self.rows, self.primes)

    def matches_golden(self, out) -> bool:
        return bool(np.array_equal(np.asarray(out, dtype=np.uint64),
                                   self.golden))


class _KeyswitchWorkload:
    """A full toy-ring keyswitch; the spare-modulus channel guards the
    lazy accumulators (site ``keyswitch``)."""

    sites = (SITE_KEYSWITCH,)

    def __init__(self, config: CampaignConfig, rng: np.random.Generator):
        from repro.fhe.keyswitch import apply_keyswitch, generate_keyswitch_key
        from repro.fhe.params import toy_params
        from repro.fhe.sampling import sample_uniform_poly

        self.config = config
        self.params = toy_params()
        self.q = self.params.primes[0]
        full = self.params.primes + (self.params.special_prime,)
        s_from = sample_uniform_poly(self.params.n, full, rng)
        s_to = sample_uniform_poly(self.params.n, full, rng)
        self.ksk = generate_keyswitch_key(self.params, s_from, s_to, rng)
        self.x = sample_uniform_poly(self.params.n, self.params.primes, rng)
        #: Flat size of one lazy accumulator: (levels + 1) limb rows.
        self.keyswitch_words = (self.params.levels + 1) * self.params.n
        self._apply = apply_keyswitch
        with use_backend(NumpyBackend()):
            g0, g1 = apply_keyswitch(self.x, self.ksk, self.params)
        self.golden = (g0.residues.copy(), g1.residues.copy())

    def make_backend(self) -> IntegrityBackend:
        c = self.config
        return IntegrityBackend(
            NumpyBackend(), c.policy, seed=c.seed,
            max_retries=c.max_retries,
            quarantine_threshold=c.quarantine_threshold)

    def attach(self, backend: IntegrityBackend,
               injector: FaultInjector | None) -> None:
        pass  # the global hook reaches every buffer site

    def run(self, backend: IntegrityBackend):
        with use_backend(backend):
            return self._apply(self.x, self.ksk, self.params)

    def matches_golden(self, out) -> bool:
        p0, p1 = out
        return (bool(np.array_equal(p0.residues, self.golden[0]))
                and bool(np.array_equal(p1.residues, self.golden[1])))


_WORKLOADS = {"vpu-ntt": _VpuNttWorkload, "keyswitch": _KeyswitchWorkload}


# -- spec generation ---------------------------------------------------------


def _probe(workload, config: CampaignConfig) -> dict:
    """Clean instrumented run: fault-clock length and per-site buffer op
    counts, plus a golden-match sanity check."""
    backend = workload.make_backend()
    injector = FaultInjector(())
    workload.attach(backend, injector)
    previous = install_fault_hook(injector)
    try:
        out = workload.run(backend)
    finally:
        install_fault_hook(previous)
        workload.attach(backend, None)
    if not workload.matches_golden(out):
        raise RuntimeError("clean probe run diverged from golden")
    return {
        "cycles": injector.cycles,
        "buffer_ops": dict(injector._buffer_ops),
        "regfile_entries": 2 * config.m + 2,
        "sram_rows": 2 * max(config.n // config.m, 2),
        "keyswitch_words": getattr(workload, "keyswitch_words", config.n),
    }


def _random_spec(site: str, kind: str, rng: np.random.Generator,
                 config: CampaignConfig, probe: dict) -> FaultSpec:
    cycle = int(rng.integers(0, max(probe["cycles"], 1)))
    bit = int(rng.integers(0, 64))
    lane = int(rng.integers(0, config.m))
    if site == SITE_REGFILE:
        return FaultSpec(site, kind, cycle, bit,
                         word=int(rng.integers(0, probe["regfile_entries"])),
                         lane=lane)
    if site == SITE_SRAM:
        return FaultSpec(site, kind, cycle, bit,
                         word=int(rng.integers(0, probe["sram_rows"])),
                         lane=lane)
    if site == SITE_ALU:
        return FaultSpec(site, kind, cycle, bit, lane=lane)
    if site == SITE_NETWORK:
        stages = config.m.bit_length() - 1
        if int(rng.integers(0, 4)) == 0:
            # A raw mux select line inside one shift stage.
            return FaultSpec(site, kind, cycle, 0,
                             word=1 + int(rng.integers(0, stages)), lane=lane)
        # The flat control word: CG lines + shift group bits.
        return FaultSpec(site, kind, cycle,
                         int(rng.integers(0, config.m + 1)))
    # Buffer sites: cycle counts staging ops, lane is a flat word index.
    ops = probe["buffer_ops"].get(site, 1)
    cycle = int(rng.integers(0, max(ops, 1)))
    if site == SITE_DRAM:
        words = config.limbs * config.n
    else:
        words = probe.get("keyswitch_words", config.n)
    return FaultSpec(site, kind, cycle, bit,
                     lane=int(rng.integers(0, max(words, 1))))


# -- the campaign loop -------------------------------------------------------


def _run_one(workload, index: int, spec: FaultSpec) -> FaultEvent:
    backend = workload.make_backend()
    injector = FaultInjector([spec])
    workload.attach(backend, injector)
    previous = install_fault_hook(injector)
    crashed = False
    out = None
    try:
        out = workload.run(backend)
    except Exception:
        crashed = True
    finally:
        install_fault_hook(previous)
        workload.attach(backend, None)
    fired = bool(injector.fired)
    latency = (injector.detection_latencies[0]
               if injector.detection_latencies else None)
    if crashed:
        outcome = "crash"
    else:
        matches = workload.matches_golden(out)
        if backend.detections:
            outcome = "corrected" if matches else "detected"
        else:
            outcome = "masked" if matches else "silent"
    return FaultEvent(index, spec, outcome, fired, latency,
                      backend.retries, backend.degrade_level)


def run_campaign(config: CampaignConfig) -> FaultReport:
    """Run one full campaign and return its structured report."""
    workload_cls = _WORKLOADS.get(config.workload)
    if workload_cls is None:
        raise ValueError(f"unknown workload {config.workload!r} "
                         f"(have {sorted(_WORKLOADS)})")
    unsupported = [s for s in config.sites if s not in workload_cls.sites]
    if unsupported:
        raise ValueError(f"workload {config.workload!r} does not expose "
                         f"sites {unsupported}")
    if not config.sites:
        raise ValueError("campaign needs at least one fault site")
    rng = np.random.default_rng(config.seed)
    workload = workload_cls(config, rng)
    probe = _probe(workload, config)
    report = FaultReport(workload=config.workload, policy=str(config.policy),
                         seed=config.seed, n=config.n, m=config.m,
                         q=workload.q, sites=tuple(config.sites))
    for k in range(config.injections):
        # Round-robin site and kind so every class is covered even in
        # short campaigns; cycle/bit/word/lane are drawn from the RNG.
        site = config.sites[k % len(config.sites)]
        kind = KINDS[(k // len(config.sites)) % len(KINDS)]
        spec = _random_spec(site, kind, rng, config, probe)
        report.events.append(_run_one(workload, k, spec))
    return report


def audit_determinism(config: CampaignConfig) -> bool:
    """Satellite check: the same seed must produce **byte-identical**
    report JSON across two independent campaign runs."""
    first = run_campaign(config).to_json()
    second = run_campaign(config).to_json()
    return first == second
