"""CKKS key generation, encryption, and the homomorphic evaluator.

Implements the scheme exactly as the paper's workload description needs
it (§II-A): ciphertexts are pairs of double-CRT polynomials; HAdd is
element-wise; HMult is point-wise products plus a relinearization
keyswitch and a rescale; HRot is an evaluation-domain automorphism plus
a Galois keyswitch.  Every polynomial kernel routes through
:mod:`repro.fhe.backend`, so the whole evaluator can run on the
behavioral VPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.fhe.encoding import CkksEncoder
from repro.fhe.keyswitch import (
    KeySwitchKey,
    apply_keyswitch,
    generate_keyswitch_key,
    mod_down,
    rescale,
)
from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rns import get_basis
from repro.fhe.sampling import sample_gaussian, sample_ternary, sample_uniform_poly


@dataclass
class Ciphertext:
    """An RLWE ciphertext: ``sum_k parts[k] * s^k`` decrypts the message.

    Fresh and relinearized ciphertexts have two parts; the transient
    result of a multiplication has three until relinearization.
    """

    parts: list[RnsPoly]
    scale: float

    @property
    def level(self) -> int:
        return self.parts[0].num_limbs - 1

    @property
    def size(self) -> int:
        return len(self.parts)

    def copy(self) -> "Ciphertext":
        return Ciphertext([p.copy() for p in self.parts], self.scale)


class CkksContext:
    """Keys plus evaluator for one parameter set."""

    def __init__(self, params: CkksParams, seed: int = 2025):
        self.params = params
        self.encoder = CkksEncoder(params)
        self.basis = get_basis(params.primes, params.special_prime)
        self._rng = np.random.default_rng(seed)
        self._full = params.primes + (params.special_prime,)
        self._keygen()
        self.galois_keys: dict[int, KeySwitchKey] = {}

    # -- key generation -------------------------------------------------------

    def _keygen(self) -> None:
        p = self.params
        secret_coeffs = sample_ternary(p.n, self._rng,
                                       hamming_weight=p.secret_hamming_weight)
        self._secret_full = RnsPoly.from_int_coeffs(secret_coeffs, self._full)
        self.secret = self._secret_full.limbs_prefix(p.levels)
        # Public key (over the chain only; encryption happens at top level).
        a = sample_uniform_poly(p.n, p.primes, self._rng)
        e = RnsPoly.from_int_coeffs(
            sample_gaussian(p.n, p.error_std, self._rng), p.primes)
        self.public_key = ((-(a * self.secret)) + e, a)
        # Relinearization key: s^2 -> s.
        s_squared = self._secret_full * self._secret_full
        self.relin_key = generate_keyswitch_key(
            p, s_squared, self._secret_full, self._rng)

    def generate_galois_keys(self, rotations: list[int],
                             conjugation: bool = False) -> None:
        """Create keyswitch keys for the given slot rotations."""
        p = self.params
        elements = [pow(5, r, 2 * p.n) for r in rotations]
        if conjugation:
            elements.append(2 * p.n - 1)
        for k in elements:
            if k in self.galois_keys:
                continue
            s_rotated = self._secret_full.automorphism(k)
            self.galois_keys[k] = generate_keyswitch_key(
                p, s_rotated, self._secret_full, self._rng)

    # -- encryption ------------------------------------------------------------

    def encode(self, values: np.ndarray) -> tuple[RnsPoly, float]:
        return self.encoder.encode(values)

    def encrypt(self, values: np.ndarray) -> Ciphertext:
        """Encode and encrypt a slot vector under the public key."""
        p = self.params
        plaintext, scale = self.encode(values)
        b, a = self.public_key
        u = RnsPoly.from_int_coeffs(
            sample_ternary(p.n, self._rng), p.primes)
        e0 = RnsPoly.from_int_coeffs(
            sample_gaussian(p.n, p.error_std, self._rng), p.primes)
        e1 = RnsPoly.from_int_coeffs(
            sample_gaussian(p.n, p.error_std, self._rng), p.primes)
        c0 = b * u + e0 + plaintext
        c1 = a * u + e1
        return Ciphertext([c0, c1], scale)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt and decode back to slot values."""
        level = ct.level
        s = self.secret.limbs_prefix(level + 1)
        acc = ct.parts[0].copy()
        s_power = s
        for part in ct.parts[1:]:
            acc = acc + part * s_power
            s_power = s_power * s
        return self.encoder.decode(acc, ct.scale)

    # -- evaluator: linear ops ---------------------------------------------------

    def _check_levels(self, a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        if a.level == b.level:
            return a, b
        target = min(a.level, b.level)
        return self.mod_reduce(a, target), self.mod_reduce(b, target)

    def _check_scales(self, a: Ciphertext, b: Ciphertext) -> None:
        # Chain primes share a bit width but are not identical, so two
        # pipelines that rescaled by different primes carry scales a few
        # parts in 10^4 apart.  Treating them as equal introduces that
        # much relative error — standard approximate-CKKS practice — so
        # only reject genuinely different scales (> 1% apart in log2).
        if abs(np.log2(a.scale) - np.log2(b.scale)) > 0.01:
            raise ValueError(
                f"scale mismatch: 2^{np.log2(a.scale):.3f} vs "
                f"2^{np.log2(b.scale):.3f}; rescale or re-encode first"
            )

    def mod_reduce(self, ct: Ciphertext, target_level: int) -> Ciphertext:
        """Drop limbs to a lower level (scale unchanged)."""
        if target_level > ct.level:
            raise ValueError("cannot raise a ciphertext's level")
        parts = [p.limbs_prefix(target_level + 1) for p in ct.parts]
        return Ciphertext(parts, ct.scale)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self._check_levels(a, b)
        self._check_scales(a, b)
        size = max(a.size, b.size)
        parts = []
        for k in range(size):
            if k < a.size and k < b.size:
                parts.append(a.parts[k] + b.parts[k])
            else:
                parts.append((a.parts[k] if k < a.size else b.parts[k]).copy())
        return Ciphertext(parts, a.scale)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.add(a, self.negate(b))

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext([-p for p in ct.parts], ct.scale)

    def add_plain(self, ct: Ciphertext, values: np.ndarray) -> Ciphertext:
        plaintext, _ = self.encoder.encode(values, level=ct.level,
                                           scale=ct.scale)
        parts = [ct.parts[0] + plaintext] + [p.copy() for p in ct.parts[1:]]
        return Ciphertext(parts, ct.scale)

    def multiply_plain(self, ct: Ciphertext, values: np.ndarray,
                       rescale_after: bool = True) -> Ciphertext:
        plaintext, pt_scale = self.encoder.encode(values, level=ct.level)
        parts = [p * plaintext for p in ct.parts]
        out = Ciphertext(parts, ct.scale * pt_scale)
        return self.rescale(out) if rescale_after else out

    # -- evaluator: multiplication ------------------------------------------------

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 rescale_after: bool = True) -> Ciphertext:
        """HMult: tensor product, relinearize, rescale."""
        a, b = self._check_levels(a, b)
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects relinearized (2-part) inputs")
        d0 = a.parts[0] * b.parts[0]
        d1 = a.parts[0] * b.parts[1] + a.parts[1] * b.parts[0]
        d2 = a.parts[1] * b.parts[1]
        out = self.relinearize(Ciphertext([d0, d1, d2], a.scale * b.scale))
        return self.rescale(out) if rescale_after else out

    def square(self, ct: Ciphertext, rescale_after: bool = True) -> Ciphertext:
        return self.multiply(ct, ct, rescale_after)

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Fold the ``s^2`` part back onto ``(1, s)`` with the relin key."""
        if ct.size == 2:
            return ct.copy()
        if ct.size != 3:
            raise ValueError(f"cannot relinearize a {ct.size}-part ciphertext")
        t0, t1 = apply_keyswitch(ct.parts[2], self.relin_key, self.params)
        return Ciphertext(
            [ct.parts[0] + mod_down(t0, self.basis),
             ct.parts[1] + mod_down(t1, self.basis)],
            ct.scale,
        )

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the current top chain prime; scale shrinks with it."""
        dropped = ct.parts[0].primes[-1]
        parts = [rescale(p, self.basis) for p in ct.parts]
        return Ciphertext(parts, ct.scale / dropped)

    def match_scale(self, ct: Ciphertext, target_level: int,
                    target_scale: float) -> Ciphertext:
        """Bring a ciphertext to exactly ``(target_level, target_scale)``.

        Walks down with canonical ones-multiplies, then spends the final
        level on a ones-multiply encoded at the custom scale
        ``target_scale * q_next / ct.scale`` so the rescale lands on the
        target exactly — the scale-stabilization step deep evaluation
        trees (Paterson-Stockmeyer, bootstrapping) need when branches of
        different multiplicative depth are recombined.
        """
        if target_level >= ct.level:
            raise ValueError(
                f"need at least one level of headroom: at {ct.level}, "
                f"target {target_level}"
            )
        while ct.level > target_level + 1:
            ct = self.multiply_plain(ct, np.ones(self.params.slots))
        q_next = ct.parts[0].primes[-1]
        pt_scale = target_scale * q_next / ct.scale
        if not 1.0 <= pt_scale < q_next / 4:
            raise ValueError(
                f"cannot reach scale 2^{np.log2(target_scale):.2f} from "
                f"2^{np.log2(ct.scale):.2f} in one step"
            )
        plaintext, _ = self.encoder.encode(np.ones(self.params.slots),
                                           level=ct.level, scale=pt_scale)
        adjusted = Ciphertext([p * plaintext for p in ct.parts],
                              ct.scale * pt_scale)
        out = self.rescale(adjusted)
        return Ciphertext(out.parts, target_scale)

    # -- evaluator: rotations ------------------------------------------------------

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """HRot: cyclically rotate the slot vector by ``steps``.

        Applies the Galois automorphism (a single-pass permutation on
        the VPU) and a keyswitch back to the canonical secret.
        """
        p = self.params
        k = pow(5, steps % p.slots, 2 * p.n)
        if k == 1:
            return ct.copy()
        if k not in self.galois_keys:
            raise KeyError(
                f"no Galois key for rotation {steps}; call "
                "generate_galois_keys first"
            )
        return self._apply_galois(ct, k)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate every slot (Galois element 2N-1)."""
        k = 2 * self.params.n - 1
        if k not in self.galois_keys:
            raise KeyError("no conjugation key; call generate_galois_keys "
                           "with conjugation=True")
        return self._apply_galois(ct, k)

    def _apply_galois(self, ct: Ciphertext, k: int) -> Ciphertext:
        if ct.size != 2:
            raise ValueError("rotate expects a relinearized ciphertext")
        # The single-pass permutation phase of an HRot; the Galois
        # keyswitch that follows traces its own four phases.
        with obs.span("hrot.automorphism", cat=obs.CAT_PHASE, galois_k=k):
            c0 = ct.parts[0].automorphism(k)
            c1 = ct.parts[1].automorphism(k)
        t0, t1 = apply_keyswitch(c1, self.galois_keys[k], self.params)
        return Ciphertext(
            [c0 + mod_down(t0, self.basis), mod_down(t1, self.basis)],
            ct.scale,
        )

    def rotate_hoisted(self, ct: Ciphertext,
                       steps_list: list[int]) -> list[Ciphertext]:
        """Rotate one ciphertext by several amounts, hoisting the digit
        decomposition.

        The expensive part of a rotation keyswitch is decomposing ``c1``
        into digits (one inverse NTT plus a batch of forward NTTs per
        digit).  Because the Galois action commutes with the per-prime
        digit decomposition, the digits can be computed **once** and
        merely permuted (an evaluation-domain automorphism — a single
        network pass on the VPU) for every rotation: ``r`` rotations cost
        one decomposition instead of ``r``.  This is the standard
        hoisting optimization bootstrapping and BSGS matvecs lean on.
        """
        from repro.fhe.keyswitch import accumulate_keyswitch, decompose_digits

        if ct.size != 2:
            raise ValueError("rotate expects a relinearized ciphertext")
        p = self.params
        digits = decompose_digits(ct.parts[1], p)
        level_count = ct.parts[0].num_limbs
        keep = list(range(level_count)) + [p.levels]
        primes = ct.parts[0].primes + (p.special_prime,)
        results = []
        for steps in steps_list:
            k = pow(5, steps % p.slots, 2 * p.n)
            if k == 1:
                results.append(ct.copy())
                continue
            if k not in self.galois_keys:
                raise KeyError(f"no Galois key for rotation {steps}")
            c0 = ct.parts[0].automorphism(k)
            rotated = [digit.automorphism(k) for digit in digits]
            t0, t1 = accumulate_keyswitch(rotated, self.galois_keys[k],
                                          keep, primes)
            results.append(Ciphertext(
                [c0 + mod_down(t0, self.basis), mod_down(t1, self.basis)],
                ct.scale,
            ))
        return results
