"""CKKS key generation, encryption, and the homomorphic evaluator.

Implements the scheme exactly as the paper's workload description needs
it (§II-A): ciphertexts are pairs of double-CRT polynomials; HAdd is
element-wise; HMult is point-wise products plus a relinearization
keyswitch and a rescale; HRot is an evaluation-domain automorphism plus
a Galois keyswitch.  Keys, public-key encryption, the secret phase and
the two keyswitch folds are the RLWE core (:mod:`repro.fhe.rlwe`) that
BGV and BFV share; this module adds the encoder and CKKS's scale
management.  Every polynomial kernel routes through
:mod:`repro.fhe.backend`, so the whole evaluator can run on the
behavioral VPU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.fault.injector import current_fault_hook
from repro.fhe import keyswitch
from repro.fhe.encoding import CkksEncoder
from repro.fhe.params import CkksParams
from repro.fhe.polynomial import RnsPoly
from repro.fhe.rlwe import RlweCiphertext, RlweContext, tensor


#: Byte budget of one context's plaintext cache (residues plus keys):
#: the 8 constants of a bootstrap-shaped program at ``n = 8192``,
#: ``L = 8`` take 3.5 MiB.
PLAINTEXT_CACHE_BYTES = 32 << 20


class PlaintextCache:
    """A context's encoded plaintexts: an LRU map bounded in bytes.

    Entries past :data:`PLAINTEXT_CACHE_BYTES` are evicted least
    recently used first; each entry's residues are read-only.
    Thread-safe: a miss encodes outside the lock, and two threads that
    race on one key both return the entry stored first."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, RnsPoly] = OrderedDict()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _size(key: tuple, poly: RnsPoly) -> int:
        return len(key[1]) + poly.residues.nbytes

    def get(self, key: tuple, encode) -> RnsPoly:
        """The entry under ``key``, made by ``encode()`` on a miss.

        ``key`` is ``(shape, slot bytes, level, scale)``; its slot bytes
        count against the budget with the residues."""
        with self._lock:
            poly = self._entries.get(key)
            if poly is not None:
                self._entries.move_to_end(key)
                return poly
        poly = encode()
        poly.residues.flags.writeable = False
        with self._lock:
            stored = self._entries.setdefault(key, poly)
            if stored is poly:
                self.nbytes += self._size(key, poly)
                while self.nbytes > PLAINTEXT_CACHE_BYTES:
                    old_key, old = self._entries.popitem(last=False)
                    self.nbytes -= self._size(old_key, old)
            else:
                self._entries.move_to_end(key)
            return stored


@dataclass
class Ciphertext(RlweCiphertext):
    """A CKKS ciphertext: RLWE parts plus the scale the message carries."""

    scale: float
    scheme = "ckks"


class CkksContext(RlweContext):
    """Keys plus evaluator for one parameter set."""

    scheme = "ckks"

    def __init__(self, params: CkksParams, seed: int = 2025):
        self.params = params
        self.encoder = CkksEncoder(params)
        self.plaintexts = PlaintextCache()
        super().__init__(params, seed)

    def generate_galois_keys(self, rotations: list[int],
                             conjugation: bool = False) -> None:
        """Create keyswitch keys for the given slot rotations."""
        super().generate_galois_keys(rotations)
        if conjugation:
            self._add_galois_key(2 * self.params.n - 1)

    # -- encryption ------------------------------------------------------------

    def encode(self, values: np.ndarray) -> tuple[RnsPoly, float]:
        return self.encoder.encode(values)

    def encrypt(self, values: np.ndarray) -> Ciphertext:
        """Encode and encrypt a slot vector under the public key."""
        plaintext, scale = self.encode(values)
        return Ciphertext(self._encrypt(plaintext), scale)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt and decode back to slot values."""
        return self.encoder.decode(self.phase(ct), ct.scale)

    # -- evaluator: linear ops ---------------------------------------------------

    def _operands(self, a: Ciphertext,
                  b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
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
        return self._match_levels(a, b)

    def mod_reduce(self, ct: Ciphertext, target_level: int) -> Ciphertext:
        """Drop limbs to a lower level (scale unchanged)."""
        if target_level > ct.level:
            raise ValueError("cannot raise a ciphertext's level")
        return self._truncate(ct, target_level)

    def _plaintext(self, values: np.ndarray, level: int,
                   scale: float | None = None) -> RnsPoly:
        """``values`` encoded at ``(level, scale)`` (default: the
        parameter scale), from :attr:`plaintexts` — a constant is
        encoded once per context.  While a fault hook is installed every
        call encodes afresh and nothing is stored, so an injected
        corruption is never memoized."""
        scale = self.params.scale if scale is None else scale

        def encode() -> RnsPoly:
            return self.encoder.encode(values, level=level, scale=scale)[0]

        if current_fault_hook() is not None:
            return encode()
        z = np.asarray(values, dtype=np.complex128)
        return self.plaintexts.get((z.shape, z.tobytes(), level, scale),
                                   encode)

    def add_plain(self, ct: Ciphertext, values: np.ndarray) -> Ciphertext:
        plaintext = self._plaintext(values, ct.level, ct.scale)
        parts = [ct.parts[0] + plaintext] + [p.copy() for p in ct.parts[1:]]
        return Ciphertext(parts, ct.scale)

    def multiply_plain(self, ct: Ciphertext, values: np.ndarray,
                       rescale_after: bool = True) -> Ciphertext:
        plaintext = self._plaintext(values, ct.level)
        parts = [p * plaintext for p in ct.parts]
        out = Ciphertext(parts, ct.scale * self.params.scale)
        return self.rescale(out) if rescale_after else out

    # -- evaluator: multiplication ------------------------------------------------

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 rescale_after: bool = True) -> Ciphertext:
        """HMult: tensor product, relinearize, rescale."""
        a, b = self._match_levels(a, b)
        out = self.relinearize(Ciphertext(tensor(a, b), a.scale * b.scale))
        return self.rescale(out) if rescale_after else out

    def square(self, ct: Ciphertext, rescale_after: bool = True) -> Ciphertext:
        return self.multiply(ct, ct, rescale_after)

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Fold the ``s^2`` part back onto ``(1, s)`` with the relin key."""
        return ct.copy() if ct.size == 2 else self._relin_fold(ct)

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the current top chain prime; scale shrinks with it."""
        dropped = ct.parts[0].primes[-1]
        parts = [keyswitch.rescale(p, self.basis) for p in ct.parts]
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
        plaintext = self._plaintext(np.ones(self.params.slots), ct.level,
                                    pt_scale)
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
        return self._rotate(ct, steps)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        """Complex-conjugate every slot (Galois element 2N-1)."""
        k = 2 * self.params.n - 1
        if k not in self.galois_keys:
            raise KeyError("no conjugation key; call generate_galois_keys "
                           "with conjugation=True")
        return self._galois_folds(ct, [k])[0]

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
        Each result is bit-identical to :meth:`rotate` by that amount.

        Every step's key is looked up before anything is computed
        (:class:`KeyError`); steps that rotate nothing decompose
        nothing, and equal steps share one accumulation.
        """
        elements = [self._galois_element(steps) for steps in steps_list]
        distinct = list(dict.fromkeys(k for k in elements if k != 1))
        folded = {1: ct}
        if distinct:
            folded.update(zip(distinct, self._galois_folds(ct, distinct)))
        out, handed_out = [], {1}  # the input itself always goes out copied
        for k in elements:
            out.append(folded[k].copy() if k in handed_out else folded[k])
            handed_out.add(k)
        return out
