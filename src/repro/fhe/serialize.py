"""Key and ciphertext persistence.

Ciphertexts and plaintext polynomials serialize to ``.npz`` archives (an
array of residue rows, the moduli, the domain flag, and the per-scheme
bookkeeping), so an encrypted workload can be handed between processes —
a client encrypting on one machine, the evaluator running elsewhere —
without either side holding the other's state.  Secret keys deliberately
have no serializer here; persisting those safely is a key-management
problem out of scope for a research library.

All three schemes serialize through the same archive format:
:class:`repro.fhe.ckks.Ciphertext` (carries a scale),
:class:`repro.fhe.bfv.BfvCiphertext` (no bookkeeping), and
:class:`repro.fhe.bgv.BgvCiphertext` (carries the mod-switch plaintext
correction ``factor``).  Each class declares its ``scheme`` tag
(:mod:`repro.fhe.rlwe`); the tag — never the class name, so subclasses
serialize as their base scheme — is written into the archive and routes
the loader back through :data:`repro.fhe.rlwe.CIPHERTEXT_TYPES`.

Robustness contract (the durable-execution layer in
:mod:`repro.recover` leans on it): every archive carries a SHA-256
content digest over the residue payload and its metadata, recomputed
and checked on load, and every malformed input — truncated file, bad
zip, missing arrays, residue matrix whose shape disagrees with its
primes tuple, digest mismatch — raises the typed
:class:`SerializationError` instead of an opaque numpy/zipfile/KeyError
crash.  :func:`ciphertext_digest` is the same digest over an in-memory
ciphertext, so checkpoint manifests can name the bytes they expect.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from dataclasses import fields
from pathlib import Path
from typing import Any

import numpy as np

from repro.fhe.polynomial import RnsPoly
from repro.fhe.rlwe import CIPHERTEXT_TYPES

#: v1 archives are CKKS-only and carry no digest; v2 adds the scheme
#: tag, the BGV factor, and the content digest.  Both load.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


class SerializationError(ValueError):
    """A ciphertext archive is malformed, truncated, or corrupt.

    Subclasses :class:`ValueError` so pre-v2 callers that caught the
    loader's version error keep working.
    """


def _ciphertext_scheme(ct: Any) -> str:
    """The scheme tag the ciphertext's class declares."""
    scheme = getattr(ct, "scheme", None)
    if scheme not in CIPHERTEXT_TYPES:
        raise SerializationError(
            f"cannot serialize {ct!r}: expected a CKKS Ciphertext, "
            f"BfvCiphertext, or BgvCiphertext")
    return scheme


def ciphertext_digest(ct: Any) -> str:
    """SHA-256 hex digest of a ciphertext's full content.

    Covers every residue word, the primes tuple and domain flag of each
    part, and the scheme bookkeeping (CKKS scale / BGV factor), so two
    ciphertexts share a digest iff they are bit-identical — the
    identity the crash-recovery campaign checks resumed runs against.
    """
    scheme = _ciphertext_scheme(ct)
    h = hashlib.sha256()
    h.update(scheme.encode())
    if scheme == "ckks":
        h.update(np.float64(ct.scale).tobytes())
    elif scheme == "bgv":
        h.update(str(int(ct.factor)).encode())
    for part in ct.parts:
        h.update(np.asarray(part.residues, dtype=np.uint64).tobytes())
        h.update(np.array(part.primes, dtype=np.uint64).tobytes())
        h.update(b"\x01" if part.is_eval else b"\x00")
    return h.hexdigest()


def poly_to_arrays(poly: RnsPoly) -> dict[str, np.ndarray]:
    """Flatten one polynomial into named arrays."""
    return {
        "residues": poly.residues,
        "primes": np.array(poly.primes, dtype=np.uint64),
        "is_eval": np.array([poly.is_eval]),
    }


def poly_from_arrays(arrays: dict[str, np.ndarray]) -> RnsPoly:
    residues = np.asarray(arrays["residues"])
    primes = tuple(int(q) for q in arrays["primes"])
    if residues.ndim != 2 or residues.shape[0] != len(primes):
        raise SerializationError(
            f"residue matrix shape {residues.shape} does not match the "
            f"{len(primes)}-prime modulus tuple")
    return RnsPoly(residues, primes, bool(arrays["is_eval"][0]))


def save_ciphertext(ct: Any, path: str | Path | io.BytesIO) -> None:
    """Serialize a CKKS/BFV/BGV ciphertext to an ``.npz`` archive."""
    scheme = _ciphertext_scheme(ct)
    payload: dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION]),
        "scheme": np.array([scheme]),
        "scale": np.array([getattr(ct, "scale", 0.0)], dtype=np.float64),
        "factor": np.array([getattr(ct, "factor", 1)], dtype=np.int64),
        "num_parts": np.array([ct.size]),
        "digest": np.array([ciphertext_digest(ct)]),
    }
    for k, part in enumerate(ct.parts):
        for name, arr in poly_to_arrays(part).items():
            payload[f"part{k}_{name}"] = arr
    np.savez_compressed(path, **payload)


def _load_archive(path: str | Path | io.BytesIO) -> Any:
    try:
        return np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
        raise SerializationError(
            f"unreadable ciphertext archive: {exc}") from exc


def load_ciphertext(path: str | Path | io.BytesIO) -> Any:
    """Deserialize a ciphertext; the archive's scheme tag picks the
    class (:class:`~repro.fhe.ckks.Ciphertext`,
    :class:`~repro.fhe.bfv.BfvCiphertext`, or
    :class:`~repro.fhe.bgv.BgvCiphertext`).

    Raises :class:`SerializationError` on any malformed input:
    truncated/corrupt zip payloads, missing arrays, residue matrices
    whose shape disagrees with their primes tuple, unknown scheme tags,
    or a content-digest mismatch.
    """
    with _load_archive(path) as data:
        try:
            version = int(data["version"][0])
            if version not in _SUPPORTED_VERSIONS:
                raise SerializationError(
                    f"unsupported ciphertext format v{version}")
            scheme = (str(data["scheme"][0]) if "scheme" in data.files
                      else "ckks")
            if scheme not in CIPHERTEXT_TYPES:
                raise SerializationError(f"unknown scheme tag {scheme!r}")
            parts = []
            num_parts = int(data["num_parts"][0])
            if num_parts < 1:
                raise SerializationError(
                    f"archive declares {num_parts} ciphertext parts")
            for k in range(num_parts):
                parts.append(poly_from_arrays({
                    "residues": data[f"part{k}_residues"],
                    "primes": data[f"part{k}_primes"],
                    "is_eval": data[f"part{k}_is_eval"],
                }))
            if any(p.residues.shape != parts[0].residues.shape
                   for p in parts[1:]):
                raise SerializationError(
                    "ciphertext parts disagree on residue-matrix shape")
            ct = _construct(scheme, parts, float(data["scale"][0]),
                            int(data["factor"][0])
                            if "factor" in data.files else 1)
            if "digest" in data.files:
                stored = str(data["digest"][0])
                actual = ciphertext_digest(ct)
                if stored != actual:
                    raise SerializationError(
                        f"content digest mismatch: archive says "
                        f"{stored[:16]}…, payload hashes to "
                        f"{actual[:16]}… (corrupt or tampered archive)")
            return ct
        except KeyError as exc:
            raise SerializationError(
                f"truncated ciphertext archive: missing array {exc}"
            ) from exc


def _construct(scheme: str, parts: list[RnsPoly], scale: float,
               factor: int) -> Any:
    cls = CIPHERTEXT_TYPES[scheme]
    bookkeeping = {"scale": scale, "factor": factor}
    return cls(parts, **{f.name: bookkeeping[f.name]
                         for f in fields(cls) if f.name != "parts"})


def ciphertext_size_bytes(ct: Any) -> int:
    """In-memory payload size: parts x limbs x N x 8 bytes."""
    return sum(p.residues.nbytes for p in ct.parts)
