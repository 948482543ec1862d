"""Executors: the backends the serving engine dispatches requests to.

Two implementations of one small duck-typed contract::

    async def run(request, level, straggle=1.0) -> value
    def verify(request, value) -> bool       # integrity verdict
    def corrupt(value) -> value              # chaos helper: a detectably
                                             # wrong value of the same type
    def health() -> float                    # optional: capacity fraction
                                             # in [0, 1] (default 1.0)

* :class:`CkksOpExecutor` performs **real** ciphertext operations
  on toy CKKS parameters through the repo's kernel-backend stack.  It
  has no op vocabulary of its own: the four served names
  (:data:`~repro.serve.requests.OPS`) are labels on positions of one
  checked ring program (:data:`SERVED_PROGRAM`, in the
  :mod:`repro.fhe.program` vocabulary), and serving a request
  re-executes the labelled position — on the degradation ladder
  :class:`~repro.fhe.backend.IntegrityBackend` walks: level 0 = the
  configured backend, then :func:`~repro.fhe.backend.ladder_backend`
  (level 1 = clamped numpy, level 2 = per-row golden).  Verification
  decrypts and compares against a precomputed golden plaintext, so a
  corrupted result can never pass.
* :class:`SimulatedExecutor` replaces compute with seeded service-time
  sleeps and fingerprint values — the open-loop benchmark uses it to
  push 100k+ requests through the *scheduling* machinery in seconds
  while keeping verification meaningful (a corrupted fingerprint fails
  the check).

Ops are synchronous numpy work executed inline on the event loop: at
toy sizes each op is far below the attempt timeout, and inline
execution keeps results bit-deterministic (no cross-thread backend
mutation).  The engine's deadline wrapper still bounds the *awaitable*
around them, which is what chaos drops and stragglers stress.
"""

from __future__ import annotations

import asyncio
import zlib

import numpy as np

from repro import obs
from repro.analysis.ctstate import check_sequence
from repro.fhe.backend import ladder_backend, use_backend
from repro.fhe.ckks import CkksContext
from repro.fhe.params import CkksParams, toy_params
from repro.fhe.program import Op, ProgramExecutor
from repro.serve.requests import OPS, ServeRequest

__all__ = ["SERVED_PROGRAM", "CkksOpExecutor", "SimulatedExecutor"]

#: Service-time multiplier per degradation-ladder level — degraded
#: paths are safer but slower (the golden path is per-row scalar code).
LEVEL_SLOWDOWN = (1.0, 1.4, 2.5)


#: The program behind the served ops: two fresh ciphertexts, their
#: unrelinearized 3-part product (so ``keyswitch`` folds an s^2 part
#: back, exercising apply_keyswitch in isolation) and their unrescaled
#: product (what ``rescale`` consumes), then one labelled position per
#: name in :data:`~repro.serve.requests.OPS`.
SERVED_PROGRAM = (
    Op("encrypt"), Op("encrypt"),
    Op("tensor", (0, 1)),
    Op("multiply", (0, 1)),
    Op("multiply", (0, 1), label="hmult"),
    Op("rescale", (3,), label="rescale"),
    Op("rotate", (0,), arg=1, label="hrot"),
    Op("relinearize", (2,), label="keyswitch"),
)


class CkksOpExecutor:
    """Real CKKS ops on toy parameters through the backend stack."""

    def __init__(self, params: CkksParams | None = None, seed: int = 7):
        self.params = toy_params() if params is None else params
        self.ctx = CkksContext(self.params, seed=2025)
        self.ctx.generate_galois_keys([1])
        rng = np.random.default_rng(seed)
        self._program = ProgramExecutor(
            check_sequence(SERVED_PROGRAM, self.params, label="serve"),
            self.ctx,
            [rng.normal(0.0, 1.0, self.params.slots) for _ in range(2)])
        self._values = self._program.run()
        self._position = {op.label: index
                          for index, op in enumerate(SERVED_PROGRAM)
                          if op.label}
        #: Golden decryptions, one per op, from the default-path run.
        self.golden = {op: self.ctx.decrypt(self._values[self._position[op]])
                       for op in OPS}
        # Requests re-execute the served positions; only what they read
        # (the unlabelled values) stays resident.
        for index in self._position.values():
            self._values[index] = None

    def _apply(self, op: str) -> np.ndarray:
        """Re-execute the position ``op`` labels and decrypt it."""
        return self.ctx.decrypt(
            self._program.at(self._values, self._position[op]))

    async def run(self, request: ServeRequest, level: int,
                  straggle: float = 1.0) -> np.ndarray:
        """Perform the op; a straggler factor repeats the work, the way
        a slow limb replays on the redundant unit."""
        repeats = max(1, int(round(straggle)))
        value = None
        for _ in range(repeats):
            if level == 0:
                value = self._apply(request.op)
            else:
                with use_backend(ladder_backend(level)):
                    value = self._apply(request.op)
            await asyncio.sleep(0)  # yield between repeats
        assert value is not None
        return value

    def verify(self, request: ServeRequest, value: np.ndarray) -> bool:
        """Decrypted result must equal the precomputed golden plaintext
        bit for bit: every ladder level computes the identical integers
        and the lift is exact, so a tolerance could only hide a wrong
        result."""
        return bool(np.array_equal(value, self.golden[request.op]))

    def corrupt(self, value: np.ndarray) -> np.ndarray:
        return value + 1000.0


class SimulatedExecutor:
    """Seeded service-time model for scheduler-scale benchmarks.

    The value of a request is a CRC fingerprint of its identity, so the
    engine's verify step is real (a chaos-corrupted fingerprint fails)
    while compute is a single ``asyncio.sleep``.  Service times are a
    pure function of ``(seed, request_id)`` — replays are identical.
    """

    #: Mean service seconds per op (toy-parameter-ish ratios).
    SERVICE_MEAN = {"keyswitch": 0.0008, "hmult": 0.0010,
                    "hrot": 0.0009, "rescale": 0.0004}

    def __init__(self, seed: int = 0, time_scale: float = 1.0):
        self.seed = seed
        self.time_scale = time_scale

    def service_time(self, request: ServeRequest, level: int) -> float:
        rng = np.random.default_rng((self.seed, request.request_id,
                                     request.payload))
        base = self.SERVICE_MEAN[request.op]
        jitter = float(rng.lognormal(mean=0.0, sigma=0.35))
        return (base * jitter * LEVEL_SLOWDOWN[min(level, 2)]
                * self.time_scale)

    @staticmethod
    def fingerprint(request: ServeRequest) -> int:
        return zlib.crc32(f"{request.request_id}:{request.op}:"
                          f"{request.payload}".encode())

    def model_cycles(self, request: ServeRequest, level: int) -> int:
        """Deterministic modeled cycle cost of one dispatch — a pure
        function of (request identity, level), so per-trace cycle sums
        are exactly reproducible and reconcile against the
        ``serve.model_cycles`` counter."""
        base = int(self.SERVICE_MEAN[request.op] * 1e7)
        return (int(base * LEVEL_SLOWDOWN[min(level, 2)])
                + self.fingerprint(request) % 1000)

    async def run(self, request: ServeRequest, level: int,
                  straggle: float = 1.0) -> int:
        await asyncio.sleep(self.service_time(request, level) * straggle)
        # Charge the modeled cycles to the innermost open span (the
        # engine's serve.attempt, stamped with the request's trace) and
        # mirror them into the registry: per-trace sums from the tracer
        # must reconcile with this counter exactly.
        cycles = self.model_cycles(request, level)
        obs.add_cycles(cycles)
        obs.count("serve.model_cycles", cycles)
        return self.fingerprint(request)

    def verify(self, request: ServeRequest, value: int) -> bool:
        return value == self.fingerprint(request)

    def corrupt(self, value: int) -> int:
        return value ^ 0xDEAD_BEEF
