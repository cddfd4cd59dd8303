"""Opt-in runtime sanitizer: contracts the linter cannot check statically.

Enable with ``REPRO_SANITIZE=1`` in the environment (or
:func:`enable` from test code).  When enabled:

- solver boundaries (:func:`repro.core.reconstruction.reconstruct`,
  :func:`repro.core.robust.robust_reconstruct`, the CHS/OMP/CoSaMP/IHT
  entry points and the incremental-QR refit) validate that their inputs
  and outputs are finite and correctly shaped, raising
  :class:`ContractViolation` with the offending operand named;
- dense arrays handed out by the shared basis registry are wrapped in a
  mutation guard: the returned view is read-only *and* cannot be made
  writeable again, and :func:`verify_shared_arrays` re-checksums every
  guarded array (the sharded city solve calls it after each fan-out);
- :class:`repro.middleware.rounds.ZoneRoundDriver` asserts that its
  state transitions run on the thread that owns the driver.

When disabled (the default) every check collapses to one module-level
boolean test, so the production path pays effectively nothing — the
PERF smoke bench guards the <2% budget.
"""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np

__all__ = [
    "ContractViolation",
    "enabled",
    "enable",
    "check_finite",
    "check_vector",
    "check_shape",
    "guard_shared_array",
    "digest_array",
    "verify_shared_arrays",
    "guarded_array_count",
    "reset_guards",
    "assert_thread",
]


class ContractViolation(AssertionError):
    """A runtime invariant the sanitizer enforces was broken."""


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_SANITIZE", "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


_ENABLED = _env_enabled()


def enabled() -> bool:
    """Whether the sanitizer is active (``REPRO_SANITIZE=1``)."""
    return _ENABLED


def enable(on: bool = True) -> None:
    """Toggle the sanitizer at runtime (tests and tooling).

    Arrays already handed out by the basis registry were guarded (or
    not) at creation time; clear the registry after toggling when a test
    needs the guard on a fresh array.
    """
    global _ENABLED
    _ENABLED = on


# -- value contracts ----------------------------------------------------


def check_finite(name: str, array: object, *, context: str = "solver") -> None:
    """Raise :class:`ContractViolation` if ``array`` has NaN/Inf entries."""
    arr = np.asarray(array)
    if arr.dtype.kind not in "fc":
        return
    finite = np.isfinite(arr)
    if finite.all():
        return
    bad = int(arr.size - int(finite.sum()))
    first = int(np.flatnonzero(~finite.ravel())[0])
    raise ContractViolation(
        f"{context}: {name} contains {bad} non-finite value(s) "
        f"(first at flat index {first}, value "
        f"{arr.ravel()[first]!r}); a NaN/Inf here silently poisons the "
        "reconstruction downstream"
    )


def check_vector(
    name: str, array: object, length: int, *, context: str = "solver"
) -> None:
    """Require a 1-D array of exactly ``length`` entries."""
    arr = np.asarray(array)
    if arr.ndim != 1 or arr.shape[0] != length:
        raise ContractViolation(
            f"{context}: {name} has shape {arr.shape}, expected "
            f"({length},)"
        )


def check_shape(
    name: str,
    array: object,
    shape: tuple[int | None, ...],
    *,
    context: str = "solver",
) -> None:
    """Require the given shape (``None`` entries are wildcards)."""
    arr = np.asarray(array)
    actual = arr.shape
    ok = len(actual) == len(shape) and all(
        want is None or want == got for want, got in zip(shape, actual)
    )
    if not ok:
        raise ContractViolation(
            f"{context}: {name} has shape {actual}, expected {shape}"
        )


# -- shared-array mutation guard ---------------------------------------

# id(view) -> (view, sha1 digest at guard time).  Keyed by identity:
# the registry memoises, so each guarded array registers exactly once.
_GUARDED: dict[int, tuple[np.ndarray, str]] = {}


def _digest(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def digest_array(array: np.ndarray) -> str:
    """Content checksum of an array (sha1 over its C-order bytes).

    Public so the shared-memory registry (:mod:`repro.core.shardmem`)
    can stamp a segment's expected digest into the spec it ships to
    worker processes — the cross-process extension of the in-process
    :func:`verify_shared_arrays` invariant.  Always available (not
    sanitizer-gated): exporters pay it once per segment, not per round.
    """
    return _digest(array)


def guard_shared_array(array: np.ndarray) -> np.ndarray:
    """Freeze a registry array against in-place mutation.

    The owning array is marked read-only and a read-only *view* of it is
    returned: NumPy refuses ``setflags(write=True)`` on a view whose
    base is read-only, so consumers cannot re-enable writes on the
    object they hold.  Under the sanitizer the view is additionally
    checksummed so :func:`verify_shared_arrays` can detect any mutation
    that bypasses the flag (e.g. through a saved pre-freeze reference).
    """
    array.setflags(write=False)
    view = array.view()
    view.setflags(write=False)
    if _ENABLED:
        _GUARDED[id(view)] = (view, _digest(view))
    return view


def verify_shared_arrays(*, context: str = "basis registry") -> int:
    """Re-checksum every guarded array; returns how many were checked."""
    if not _ENABLED:
        return 0
    for view, digest in list(_GUARDED.values()):
        if _digest(view) != digest:
            raise ContractViolation(
                f"{context}: a shared read-only array was mutated in "
                "place; every same-shaped broker in the process shares "
                "this object, so the corruption is global — copy before "
                "writing"
            )
    return len(_GUARDED)


def guarded_array_count() -> int:
    return len(_GUARDED)


def reset_guards() -> None:
    """Forget all guarded arrays (paired with registry clears in tests)."""
    _GUARDED.clear()


# -- thread ownership ---------------------------------------------------


def assert_thread(owner_ident: int, label: str) -> None:
    """Assert the caller runs on the owning thread (sanitizer only)."""
    if not _ENABLED:
        return
    current = threading.get_ident()
    if current != owner_ident:
        raise ContractViolation(
            f"{label}: touched from thread {current}, but owned by "
            f"thread {owner_ident}"
        )
