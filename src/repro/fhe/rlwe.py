"""The RLWE core under CKKS, BGV and BFV.

The paper's §II-A claim — BGV and BFV "can also be similarly supported"
on the kernels the VPU accelerates — holds in this repository because
the three schemes are one ring-level mechanism with a thin layer each on
top.  This module is that mechanism, written once: what a key, a
ciphertext and a keyswitch fold *are*.  :mod:`repro.fhe.ckks`,
:mod:`repro.fhe.bgv` and :mod:`repro.fhe.bfv` subclass it and keep only
what is theirs (encoder and scale management; the mod-switch ``factor``;
``Delta`` scaling and the ``t/Q`` rounding).

The schemes differ here in one value, the *noise modulus*: BGV carries
its message next to the noise (``m + t*e``), so its key and encryption
errors are multiples of ``t`` and its ModDown must round to a multiple
of ``t``; CKKS and BFV leave both unscaled.

Two fixed points constrain the code below:

* **RNG draw order** — secret, public ``a``, public ``e``, relin key,
  then ``u, e0, e1`` per encryption.  Keys and ciphertexts are
  bit-identical across refactors only while it holds; the recovery
  goldens and the pinned digests in ``tests/test_fhe_rlwe.py`` check it.
* **Keyswitch calls go through the module attribute**
  (``keyswitch.apply_keyswitch(...)``, never ``from ... import
  apply_keyswitch``) — see the comment at the import.

This module sits below the program layer: it imports nothing from
:mod:`repro.analysis`, :mod:`repro.recover` or :mod:`repro.serve`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, TypeVar

import numpy as np

# The end-to-end benchmark times each keyswitch phase by rebinding
# apply_keyswitch / decompose_digits / accumulate_keyswitch / mod_down /
# rescale *on the keyswitch module* for one traced pass, and divides by
# the number of apply_keyswitch spans it saw.  A name imported from the
# module would keep pointing at the unwrapped function and the scheme
# layer's keyswitches would vanish from the trace, so those five are
# only ever reached as ``keyswitch.<name>``.
from repro.fhe import keyswitch
from repro.fhe.keyswitch import KeySwitchKey, generate_keyswitch_key
from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rns import get_basis
from repro.fhe.sampling import sample_gaussian, sample_ternary, sample_uniform_poly

__all__ = ["CIPHERTEXT_TYPES", "RlweCiphertext", "RlweContext", "tensor"]

#: Scheme tag -> the ciphertext class that declares it.  Filled as the
#: scheme modules are imported (``repro.fhe`` imports all three); the
#: archive loader constructs through it.
CIPHERTEXT_TYPES: dict[str, type["RlweCiphertext"]] = {}

_Ct = TypeVar("_Ct", bound="RlweCiphertext")


@dataclass
class RlweCiphertext:
    """An RLWE ciphertext: ``sum_k parts[k] * s^k`` carries the message.

    Fresh and relinearized ciphertexts have two parts; the transient
    result of a multiplication has three until relinearization.
    Subclasses add their scheme's bookkeeping as further fields.
    """

    parts: list[RnsPoly]

    #: ``"ckks" | "bgv" | "bfv"`` — what :func:`repro.fhe.program.scheme_of`
    #: and :mod:`repro.fhe.serialize` route on (contexts carry the same
    #: tag), so a subclass is the scheme of its base whatever its name.
    scheme: ClassVar[str]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "scheme" in vars(cls):
            CIPHERTEXT_TYPES.setdefault(cls.scheme, cls)

    @property
    def level(self) -> int:
        return self.parts[0].num_limbs - 1

    @property
    def size(self) -> int:
        return len(self.parts)

    def copy(self: _Ct) -> _Ct:
        return replace(self, parts=[p.copy() for p in self.parts])


def tensor(a: RlweCiphertext, b: RlweCiphertext) -> list[RnsPoly]:
    """Parts ``(d0, d1, d2)`` of an unrelinearized 2-part x 2-part
    product (operands at the same level): one kernel call on a backend
    with the ``tensor_product`` slot, ``RnsPoly`` arithmetic otherwise."""
    if a.size != 2 or b.size != 2:
        raise ValueError("multiply expects relinearized (2-part) inputs")
    a0, a1, b0, b1 = parts = (*a.parts, *b.parts)
    fused = keyswitch._fused_slot("tensor_product")
    if fused is not None and all(p.is_eval and p.primes == a0.primes
                                 for p in parts):
        blocks = fused(*(p.residues for p in parts), a0.primes)
        if blocks is not None:  # None: the slot declined
            return [RnsPoly(d, a0.primes, is_eval=True) for d in blocks]
    return [a0 * b0, a0 * b1 + a1 * b0, a1 * b1]


class RlweContext:
    """Keys, encryption, secret phase and keyswitch folds of one chain
    — everything the three schemes do the same way."""

    scheme: ClassVar[str]

    def __init__(self, chain: CkksParams, seed: int,
                 noise_modulus: int | None = None) -> None:
        #: The modulus chain (for CKKS, the parameter set itself).
        self.chain = chain
        self.basis = get_basis(chain.primes, chain.special_prime)
        self._noise_modulus = noise_modulus
        self._full = chain.primes + (chain.special_prime,)
        self.reseed(seed)
        self._keygen()
        self.galois_keys: dict[int, KeySwitchKey] = {}

    def reseed(self, seed: Any) -> None:
        """Restart the encryption randomness from ``seed``.

        Accepts anything :func:`numpy.random.default_rng` does.  The
        durable executor reseeds per op, so a resumed run redraws what
        the crashed one drew.
        """
        self._rng = np.random.default_rng(seed)

    # -- key generation -------------------------------------------------------

    def _error(self) -> RnsPoly:
        chain = self.chain
        e = sample_gaussian(chain.n, chain.error_std, self._rng)
        return RnsPoly.from_int_coeffs(e * (self._noise_modulus or 1),
                                       chain.primes)

    def _switch_key(self, s_from_full: RnsPoly) -> KeySwitchKey:
        return generate_keyswitch_key(
            self.chain, s_from_full, self._secret_full, self._rng,
            error_scale=self._noise_modulus or 1)

    def _keygen(self) -> None:
        chain = self.chain
        secret = sample_ternary(chain.n, self._rng,
                                hamming_weight=chain.secret_hamming_weight)
        self._secret_full = RnsPoly.from_int_coeffs(secret, self._full)
        self.secret = self._secret_full.limbs_prefix(chain.levels)
        # Public key (over the chain only; encryption happens at top level).
        a = sample_uniform_poly(chain.n, chain.primes, self._rng)
        self.public_key = ((-(a * self.secret)) + self._error(), a)
        # Relinearization key: s^2 -> s.
        self.relin_key = self._switch_key(self._secret_full * self._secret_full)

    def _add_galois_key(self, k: int) -> None:
        if k not in self.galois_keys:
            self.galois_keys[k] = self._switch_key(
                self._secret_full.automorphism(k))

    def generate_galois_keys(self, rotations: list[int]) -> None:
        """Create keyswitch keys for the given slot rotations."""
        for r in rotations:
            self._add_galois_key(pow(5, r, 2 * self.chain.n))

    # -- encryption and the secret phase ---------------------------------------

    def _encrypt(self, message: RnsPoly) -> list[RnsPoly]:
        """Public-key encrypt an encoded top-level message polynomial."""
        chain = self.chain
        b, a = self.public_key
        u = RnsPoly.from_int_coeffs(
            sample_ternary(chain.n, self._rng), chain.primes)
        e0, e1 = self._error(), self._error()
        return [b * u + e0 + message, a * u + e1]

    def phase(self, ct: RlweCiphertext) -> RnsPoly:
        """The secret phase ``sum_k parts[k] * s^k`` at the ciphertext's
        level: message plus noise, which each scheme's decryption then
        decodes its own way."""
        s = self.secret.limbs_prefix(ct.level + 1)
        acc = ct.parts[0].copy()
        s_power = s
        for part in ct.parts[1:]:
            acc = acc + part * s_power
            s_power = s_power * s
        return acc

    # -- level alignment and the linear ops -----------------------------------

    def _truncate(self, ct: _Ct, level: int) -> _Ct:
        return replace(ct, parts=[p.limbs_prefix(level + 1) for p in ct.parts])

    def _match_levels(self, a: _Ct, b: _Ct) -> tuple[_Ct, _Ct]:
        if a.level == b.level:
            return a, b
        level = min(a.level, b.level)
        return self._truncate(a, level), self._truncate(b, level)

    def _operands(self, a: _Ct, b: _Ct) -> tuple[_Ct, _Ct]:
        """Two operands at a common level; schemes override to also
        refuse pairs whose bookkeeping (scale, factor) disagrees."""
        return self._match_levels(a, b)

    def add(self, a: _Ct, b: _Ct) -> _Ct:
        """HAdd: part-wise sum (a 3-part operand keeps its ``s^2`` part)."""
        a, b = self._operands(a, b)
        longer = a if a.size > b.size else b
        parts = [x + y for x, y in zip(a.parts, b.parts)]
        parts += [p.copy() for p in longer.parts[len(parts):]]
        return replace(a, parts=parts)

    def sub(self, a: _Ct, b: _Ct) -> _Ct:
        return self.add(a, self.negate(b))

    def negate(self, ct: _Ct) -> _Ct:
        return replace(ct, parts=[-p for p in ct.parts])

    # -- keyswitch folds ---------------------------------------------------------
    #
    # ``keyswitch.<fn>`` through the module attribute on purpose: the
    # benchmark's traced pass rebinds these functions on the module, and
    # only calls made this way are seen (see the comment at the import).

    def _mod_down(self, t: RnsPoly) -> RnsPoly:
        return keyswitch.mod_down(t, self.basis, self._noise_modulus)

    def _relin_fold(self, ct: _Ct) -> _Ct:
        """Fold the ``s^2`` part back onto ``(1, s)`` with the relin key."""
        if ct.size != 3:
            raise ValueError(f"cannot relinearize a {ct.size}-part ciphertext")
        t0, t1 = keyswitch.apply_keyswitch(ct.parts[2], self.relin_key,
                                           self.chain)
        return replace(ct, parts=[ct.parts[0] + self._mod_down(t0),
                                  ct.parts[1] + self._mod_down(t1)])

    def _galois_folds(self, ct: _Ct, elements: list[int]) -> list[_Ct]:
        """Apply ``X -> X^k`` for each of ``elements`` and keyswitch back
        to the canonical secret: every ``c0`` is permuted, ``c1`` is
        switched under all the keys by one (hoisted)
        :func:`repro.fhe.keyswitch.hoisted_keyswitch`, two ModDowns each."""
        if ct.size != 2:
            raise ValueError("rotate expects a relinearized ciphertext")
        keys = [self.galois_keys[k] for k in elements]
        c0s = [keyswitch.galois_images([ct.parts[0]], k)[0] for k in elements]
        switched = keyswitch.hoisted_keyswitch(ct.parts[1], keys, elements,
                                               self.chain)
        return [replace(ct, parts=[c0 + self._mod_down(t0), self._mod_down(t1)])
                for c0, (t0, t1) in zip(c0s, switched)]

    def _galois_element(self, steps: int) -> int:
        """The Galois element rotating each power-of-5 orbit by
        ``steps`` (1: no rotation); its key must exist."""
        n = self.chain.n
        k = pow(5, steps % (n // 2), 2 * n)
        if k != 1 and k not in self.galois_keys:
            raise KeyError(
                f"no Galois key for rotation {steps}; call "
                "generate_galois_keys first"
            )
        return k

    def _rotate(self, ct: _Ct, steps: int) -> _Ct:
        """Rotate the slots of each power-of-5 orbit by ``steps``."""
        k = self._galois_element(steps)
        return ct.copy() if k == 1 else self._galois_folds(ct, [k])[0]
