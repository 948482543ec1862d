"""``repro.serve`` — a resilient async multi-tenant FHE serving layer.

The paper's VPU is the compute engine; this package is the machine
room around it: an asyncio scheduler that accepts ciphertext ops
(keyswitch, hmult, hrot, rescale) from many tenants and drives them
through the kernel-backend stack with the robustness properties a
service needs —

* **deadlines** propagate end-to-end and cancel abandoned work
  (:mod:`repro.serve.deadline`);
* **admission control** sheds load at the door: per-tenant token
  buckets and a queue bound that shrinks with backend health
  (:mod:`repro.serve.limits`, :mod:`repro.serve.admission`);
* **retries** are budgeted per tenant with deterministic-jitter
  backoff, and persistent integrity failures walk the same degradation
  ladder as :class:`repro.fhe.backend.IntegrityBackend` (unclamped ->
  clamped -> golden), gated by per-level **circuit breakers**
  (:mod:`repro.serve.breaker`);
* a **watchdog** guarantees every submitted request resolves with a
  typed status — the invariant the **chaos campaign**
  (:mod:`repro.serve.chaos`, ``python -m repro.serve --chaos``) attacks
  with delayed dispatches, dropped completions, stragglers, and
  injected corruptions.

``python -m repro.serve`` benchmarks a bursty synthetic trace into
``BENCH_serve.json`` (schema-1 envelope, obs phase attribution).
"""

from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.chaos import (
    ChaosInjector,
    ChaosSpec,
    default_chaos_specs,
    run_chaos_campaign,
)
from repro.serve.deadline import Deadline, with_deadline
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    EngineClosedError,
    RejectedError,
    RetryBudgetExhausted,
    ServeError,
)
from repro.serve.executor import CkksOpExecutor, SimulatedExecutor
from repro.serve.limits import RetryBudget, RetryPolicy, TokenBucket
from repro.serve.requests import OPS, ServeRequest, ServeResult

__all__ = [
    "OPS",
    "AdmissionController",
    "ChaosInjector",
    "ChaosSpec",
    "CircuitBreaker",
    "CircuitOpenError",
    "CkksOpExecutor",
    "Deadline",
    "DeadlineExceeded",
    "EngineClosedError",
    "RejectedError",
    "RetryBudget",
    "RetryBudgetExhausted",
    "RetryPolicy",
    "ServeConfig",
    "ServeEngine",
    "ServeError",
    "ServeRequest",
    "ServeResult",
    "SimulatedExecutor",
    "TokenBucket",
    "default_chaos_specs",
    "run_chaos_campaign",
    "with_deadline",
]
