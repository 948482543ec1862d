"""ABFT checks: O(n) algorithm-based verification of kernel batches.

**NTT rows** (negacyclic forward / inverse).  Each is a linear map
``y = M x`` over ``Z_q``, so for any vector ``r`` and its image
``w = Mᵀ r``

    ``<r, y>  ==  <r, M x>  ==  <w, x>   (mod q)``

The checker draws one seeded ``r`` per ``(n, q, map)``, builds ``w``
**once** with a single golden transform, and from then on verifies a
row with two dot products — no transform and no golden-model object at
check time.  Both vectors are kept as 15-bit halves, so a dot product
over reduced rows stays below ``2**58`` and takes one ``%`` per row
(:func:`repro.analysis.bounds.checksum_dot_lazy_ok`; a row that fails
the gate — a corrupted word with high bits set — takes the same
expression in exact object arithmetic).  The tables come from one host
transform, so a modulus of ``2**30`` or more gets none
(:class:`~repro.ntt.negacyclic.HostModulusError`).  The guarantee, per
row: every ``r_k`` and ``w_k`` is nonzero and ``q`` is prime, so
**one** corrupted word at the kernel's input or output always changes
exactly one side and is detected with certainty; an arbitrary
corruption inside the kernel is a nonzero error ``e`` on ``y`` and
escapes only if ``<r, e> == 0``, probability ``1/q`` (``2**-28 ..
2**-30``) over the draw of ``r``.  Every row is judged on
its own, so errors in different rows cannot cancel and the faulty rows
are named.

**Automorphism batches** are prime-independent permutations; the check
recomputes the permutation scatter (cached index table) and compares
exactly.

**Keyswitch accumulation** uses a spare modulus (redundant residue):
the lazy path's *unreduced* uint64 accumulator ``A = sum_i d_i * k_i``
is exact (``keyswitch_lazy_accumulate_ok`` gates the lazy path on it
fitting uint64), so it must satisfy

    ``A mod q_s  ==  sum_i (d_i mod q_s)(k_i mod q_s)   (mod q_s)``

for the spare prime ``q_s < 2**20`` — an independent arithmetic channel
whose products stay below ``2**40``, so the right-hand side accumulates
unreduced too (exact for any digit count below ``2**24``).  The digits
are reduced once per keyswitch (both accumulators share them) and each
key's ``mod q_s`` image is built once and lives exactly as long as the
key.

**Row-fused kernels.**  ``CompiledBackend.keyswitch_apply`` /
``drop_top_limb`` run a whole keyswitch (or the keyswitches of several
rotations of one polynomial, or a whole top-limb division) in one call,
so nothing outside sees their row NTTs — ``L + L * L`` of them in a
keyswitch, ``R`` in a drop of ``R`` limbs, as phase by phase.  Handed a
:class:`FusedCheck` they take the very same sums themselves — per row
NTT ``<w, x>`` over the row before the transform and ``<r, y>`` after
it, per target limb both sides of the spare identity — from this
checker's tables, and :meth:`AbftChecker.check_fused` reduces,
recombines, compares and records them as the checks the phased path
would have made: inverse batch, forward batch, and the two
accumulators of each keyswitch.  The kernel only sums; the tables, the
verdict and the counters stay here.  A word of ``2**32`` or more (no
reduced row has one) would wrap the kernel's unreduced sums, so the
kernel reports it as a mismatch outright.  The spare identity is
compared as a sum over each limb row, not word by word — the
accumulator side ``sum_k (A[k] mod q_s)``, the channel side one dot
product per digit row, ``sum_i <d_i mod q_s, k_i mod q_s>``, congruent
``mod q_s``: one corrupted accumulator word still always shows, several
in one row cancel only with the channel's own ``1/q_s``.  The ``G``
keyswitches of one call share its row NTTs (summed once) and run the
spare channel per key block against that block's image; for hoisted
rotations, since the channel reads each digit row through the same
Galois table as the multiply-accumulate it checks, the table itself is
compared word for word with the permutation this checker derives from
the Galois element.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.analysis.bounds import CHECKSUM_HALF_BITS, checksum_dot_lazy_ok
from repro.automorphism.mapping import galois_eval_permutation
from repro.ntt.negacyclic import NegacyclicNtt

#: Spare (redundant-residue) prime: small enough that the spare-channel
#: products are exact in uint64, coprime to every chain prime.
SPARE_MODULUS = 1_048_573

#: What a row-fused kernel writes for a row sum it refused to take: the
#: row held a word of 2**32 or more.
_WIDE_ROW = np.uint64((1 << 64) - 1)

#: The linear maps a weight table exists for.
_MAPS = ("ntt", "intt")


@dataclass(eq=False)
class FusedCheck:
    """What one row-fused kernel call is handed to be checkable, and —
    after the call — what it measured.  Built by
    :meth:`AbftChecker.fused_check`, read and filled by the binding
    (:mod:`repro.kernels.cext`, which mirrors it as ``check_t``),
    judged by :meth:`AbftChecker.check_fused`."""

    #: Stacked weight tables, ``(plan rows, 2, 2, n)`` uint32: plan row
    #: ``l``'s input weights ``w`` then output weights ``r``, as halves.
    intt: np.ndarray
    ntt: np.ndarray
    #: Modulus of every row NTT, in the order the kernel numbers them,
    #: the first ``inverse_rows`` of them inverse transforms.
    row_moduli: np.ndarray
    inverse_rows: int
    #: A keyswitch's key blocks ``mod spare_modulus`` (uint32, each in
    #: its block's layout), one per keyswitch of the call; None for a
    #: top-limb drop.
    key_images: list[np.ndarray] | None = None
    spare_modulus: int = 0
    #: Hoisted rotations: the Galois element of each rotation, whose
    #: slot permutation the kernel must read its digit rows through.
    galois: tuple[int, ...] | None = None
    #: The kernel's outputs: ``(row NTTs, 2 sides, 2 halves)`` unreduced
    #: dot products; per key block, target limb and key part both sides
    #: of the spare identity summed over the row, ``(G, L + 1, 2, 2)``;
    #: and the permutation tables the binding handed the kernel.
    sums: np.ndarray | None = None
    spare: np.ndarray | None = None
    tables: list[np.ndarray] | None = None


def _transposed_image(golden: NegacyclicNtt, r: np.ndarray,
                      kind: str) -> np.ndarray:
    """``Mᵀ r`` for the map ``kind`` names, by one golden transform.

    With ``D = diag(psi**j)`` and ``V`` the (symmetric) cyclic DFT
    matrix, the natural-order negacyclic forward map is ``V D`` and its
    inverse ``D⁻¹ V⁻¹``; so the transposes are ``D V`` and ``V⁻¹ D⁻¹``,
    and ``V z`` is the golden forward transform of ``D⁻¹ z``.
    """
    t, q = golden.tables, golden.q
    folded = r * t.psi_inv_powers % q
    image = (golden.inverse if kind == "intt" else golden.forward)(folded)
    return image * t.psi_powers % q


def _split(v: np.ndarray) -> np.ndarray:
    """``v`` (residues mod a prime below ``2**30``: the tables are built
    through :class:`NegacyclicNtt`, which refuses any wider one) as its
    ``(lo, hi)`` halves, each below ``2**15``, stored as uint32 (the
    tables are per-prime and persistent)."""
    mask = (1 << CHECKSUM_HALF_BITS) - 1
    return np.stack([v & mask, v >> CHECKSUM_HALF_BITS]).astype(np.uint32)


def _checksums(block: np.ndarray, halves: np.ndarray, q: int) -> np.ndarray:
    """``<v, row> mod q`` for every row of ``block``, ``v`` given as its
    ``(lo, hi)`` halves: uint64 with one ``%`` per dot product when
    :func:`checksum_dot_lazy_ok` says the unreduced sums fit, object
    dtype otherwise."""
    lazy = checksum_dot_lazy_ok(block.shape[1], int(block.max()), q)
    dtype = np.uint64 if lazy else object
    sums = np.einsum("ij,kj->ik", block.astype(dtype, copy=False),
                     halves.astype(dtype)) % q
    return (sums[:, 0] + (sums[:, 1] << CHECKSUM_HALF_BITS)) % q


class AbftChecker:
    """Stateful checker: seeded weight tables + check counters.

    A weight table is a pure function of ``(seed, n, q, map)`` — not of
    the order checks are issued in — so a campaign with a fixed seed
    produces byte-identical reports.  One lock covers the caches and
    the counters: threads that share a checker build each table once
    and lose no check.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        #: ``(n, q, map) -> (r halves, w halves)``, each ``(2, n)``.
        self._weights: dict[tuple[int, int, str],
                            tuple[np.ndarray, np.ndarray]] = {}
        #: ``(n, primes) -> (intt stack, ntt stack)``: the tables of a
        #: plan's rows, stacked in the order a row-fused kernel walks.
        self._stacks: dict[tuple, tuple] = {}
        #: ``id(key block) -> (weak ref, image)``: the block ``mod q_s``
        #: in its own ``(D, 2, L+1, n)`` layout, for as long as the
        #: block lives.
        self._key_images: dict[int, tuple] = {}
        self._lock = threading.RLock()
        self.checks = 0
        self.mismatches = 0

    def _record(self, ok: bool) -> bool:
        with self._lock:
            self.checks += 1
            if not ok:
                self.mismatches += 1
        return ok

    def clear_caches(self) -> None:
        """Drop the weight tables and the key spare images (rebuilt on
        next use, to the same values; the counters survive)."""
        with self._lock:
            self._weights.clear()
            self._stacks.clear()
            self._key_images.clear()

    # -- NTT rows -------------------------------------------------------------

    def _weight_table(self, n: int, q: int,
                      kind: str) -> tuple[np.ndarray, np.ndarray]:
        key = (n, q, kind)
        with self._lock:
            table = self._weights.get(key)
            if table is None:
                golden = NegacyclicNtt(n, q)
                rng = np.random.default_rng(
                    [self._seed, n, q, _MAPS.index(kind)])
                while True:
                    r = rng.integers(1, q, size=n, dtype=np.uint64)
                    w = _transposed_image(golden, r, kind)
                    if w.all():  # r is nonzero by construction
                        break
                table = self._weights[key] = (_split(r), _split(w))
        return table

    def faulty_ntt_rows(self, inputs: np.ndarray, outputs: np.ndarray,
                        primes: tuple[int, ...], kind: str) -> list[int]:
        """Rows of a batch whose output is not the ``kind`` transform
        (``"ntt"`` | ``"intt"``) of their input."""
        inputs = np.asarray(inputs)
        outputs = np.asarray(outputs)
        groups: dict[int, list[int]] = {}
        for i, q in enumerate(primes):
            groups.setdefault(int(q), []).append(i)
        faulty: list[int] = []
        for q, idx in groups.items():
            r, w = self._weight_table(inputs.shape[1], q, kind)
            differs = (_checksums(outputs[idx], r, q)
                       != _checksums(inputs[idx], w, q))
            faulty.extend(idx[k] for k in np.flatnonzero(differs))
        return sorted(faulty)

    def check_ntt_batch(self, inputs: np.ndarray, outputs: np.ndarray,
                        primes: tuple[int, ...],
                        inverse: bool = False) -> bool:
        """Verify a batched (inverse) negacyclic NTT, row by row."""
        return self._record(not self.faulty_ntt_rows(
            inputs, outputs, primes, "intt" if inverse else "ntt"))

    def check_automorphism_batch(self, inputs: np.ndarray,
                                 outputs: np.ndarray,
                                 galois_k: int) -> bool:
        """Verify a batched Galois action by exact permutation replay
        (the permutation is prime-independent and cached)."""
        inputs = np.asarray(inputs)
        perm = galois_eval_permutation(inputs.shape[1], galois_k)
        expected = np.empty_like(inputs)
        expected[:, perm.destinations()] = inputs
        return self._record(bool(np.array_equal(expected,
                                                np.asarray(outputs))))

    # -- keyswitch spare-modulus check ----------------------------------------

    def _key_image(self, block: np.ndarray) -> np.ndarray:
        with self._lock:
            entry = self._key_images.get(id(block))
            if entry is None or entry[0]() is not block:
                # Reduced below q_s < 2**20, so uint32 holds every word.
                image = (block % np.uint64(SPARE_MODULUS)).astype(np.uint32)
                images, key = self._key_images, id(block)
                entry = images[key] = (
                    weakref.ref(block, lambda _: images.pop(key, None)),
                    image)
        return entry[1]

    def check_keyswitch_accumulation(self, accs, digits, ksk,
                                     keep: list[int]) -> tuple[bool, ...]:
        """Spare-modulus verification of one keyswitch's lazy
        accumulators; one verdict (and one recorded check) each.

        ``accs[part]`` is the **unreduced** ``(L+1, n)`` uint64
        accumulator ``sum_i digits[i] * ksk.block[i, part]`` over the
        key limbs ``keep``.
        """
        qs = np.uint64(SPARE_MODULUS)
        image = self._key_image(ksk.block)
        expected = [np.zeros_like(acc) for acc in accs]
        for i, digit in enumerate(digits):
            reduced = digit.residues % qs
            for part, total in enumerate(expected):
                total += reduced * image[i, part][keep]
        return tuple(
            self._record(bool(np.array_equal(acc % qs, total % qs)))
            for acc, total in zip(accs, expected))

    # -- row-fused kernels ----------------------------------------------------

    def fused_check(self, n: int, primes: tuple[int, ...],
                    key_blocks: list[np.ndarray] | None = None,
                    galois=None) -> FusedCheck:
        """The request a row-fused kernel over plan ``(n, primes)``
        takes as ``check``: ``keyswitch_apply`` when ``key_blocks`` is
        given (``primes`` ends in the special prime) — over those blocks
        of the polynomial itself (``galois`` None), or one block per
        Galois element of ``galois`` — ``drop_top_limb`` otherwise
        (``primes`` ends in the limb being dropped)."""
        with self._lock:
            tables = self._stacks.get((n, primes))
            if tables is None:
                tables = self._stacks[n, primes] = tuple(
                    # (r, w) per modulus -> row l's (w, r): input first.
                    np.ascontiguousarray(np.stack([
                        np.stack(self._weight_table(n, q, kind)[::-1])
                        for q in primes]))
                    for kind in ("intt", "ntt"))
        rest = primes[:-1]
        if key_blocks is None:
            # Only the top row leaves the evaluation domain.
            inverse, forward = primes[-1:], rest
        else:
            inverse = rest
            forward = tuple(q for i in range(len(rest))
                            for j, q in enumerate(primes) if j != i)
        check = FusedCheck(
            *tables, np.array(inverse + forward, dtype=np.uint64),
            len(inverse))
        if key_blocks is not None:
            check.key_images = [self._key_image(b) for b in key_blocks]
            check.spare_modulus = SPARE_MODULUS
            check.galois = None if galois is None else tuple(galois)
        return check

    def faulty_fused_rows(self, check: FusedCheck,
                          ) -> tuple[list[int], list[int]]:
        """``(inverse rows, forward rows)`` of a row-fused call whose
        two sums disagree, numbered as the kernel walks them.  A
        keyswitch: the inverse rows by limb, the forward rows by
        ``(digit, target limb != digit)``, as the phased path batches
        them.  A top-limb drop: its one inverse row (the top limb),
        the forward rows by remaining limb."""
        sums = check.sums
        q = check.row_moduli[:, None]
        sides = (sums[:, :, 0] % q
                 + (sums[:, :, 1] % q << CHECKSUM_HALF_BITS)) % q
        bad = (sides[:, 0] != sides[:, 1]) | (
            sums == _WIDE_ROW).any(axis=(1, 2))
        split = check.inverse_rows
        return (np.flatnonzero(bad[:split]).tolist(),
                np.flatnonzero(bad[split:]).tolist())

    def check_fused(self, check: FusedCheck) -> tuple[bool, ...]:
        """Judge the sums a row-fused kernel left on ``check`` and
        record them as the phased path's checks: the inverse batch, the
        forward batch and — for a keyswitch — per key block its two
        accumulators, then (rotations) the permutation table
        the kernel read its digit rows through, compared word for word
        with the Galois element's own: the replay check the phased path
        makes of each permuted digit."""
        verdicts = [not rows for rows in self.faulty_fused_rows(check)]
        if check.spare is not None:
            sides = check.spare % np.uint64(check.spare_modulus)
            agree = np.all(sides[..., 0] == sides[..., 1], axis=1)
            n = check.intt.shape[-1]
            for g, accumulators in enumerate(agree.tolist()):
                verdicts += accumulators
                if check.galois is not None:
                    source = np.empty(n, dtype=np.int64)
                    source[galois_eval_permutation(
                        n, check.galois[g]).destinations()] = np.arange(n)
                    verdicts.append(bool(np.array_equal(check.tables[g],
                                                        source)))
        return tuple(self._record(ok) for ok in verdicts)
