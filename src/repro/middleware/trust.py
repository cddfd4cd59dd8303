"""Per-node trust, quarantine and rehabilitation: one ledger, both tiers.

The broker, not the node, owns data-quality judgment (sensor censoring,
Wu et al.; data-aided sensing, Choi): a node's ``noise_std`` is a
*claim*, and the robust solve's rejected rows are the evidence.  Trust
(an EWMA over accept/reject verdicts) discounts a node's GLS weight
(variance ``std^2 / trust``), repeat offenders are quarantined out of
candidate selection, and rehab probes let a recovered sensor climb back.
Updates are pure arithmetic and every ordering breaks ties by node id,
so same-seed faulty runs replay exactly.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np
from numpy.typing import ArrayLike

from ..analysis import contracts

__all__ = ["TrustManager"]

_NO_SLOTS = np.empty(0, dtype=np.int64)
# Column, dtype, value with no history (int32 counts: 1.6 MB per 100k).
_COLUMNS = (
    ("trust", np.float64, 1.0), ("accepted", np.int32, 0),
    ("rejected", np.int32, 0), ("in_quarantine", np.bool_, False),
    ("quarantined_at", np.int32, 0), ("probes", np.int32, 0),
)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise contracts.ContractViolation(f"trust ledger: {what}")


class TrustManager:
    """Struct-of-arrays EWMA trust ledger with quarantine transitions.

    Six columns, one slot per node: ``trust``, ``accepted``/``rejected``
    verdict counts, ``in_quarantine``, ``quarantined_at`` (round, 0 when
    free) and ``probes``.  ``TrustManager(n)`` indexes slots by node (the
    city); ``TrustManager()`` keys them by id (the broker): :meth:`slot`
    allocates on first use, growing every column; :meth:`forget` frees.
    ``trust <- max((1 - alpha) * trust + alpha * accepted, floor)``; a
    node under ``quarantine_below`` after ``min_rejections`` rejections is
    quarantined, worst first, up to ``max_quarantine_fraction`` of the
    members, and released at ``release_at``.
    """

    trust: np.ndarray
    accepted: np.ndarray
    rejected: np.ndarray
    in_quarantine: np.ndarray
    quarantined_at: np.ndarray
    probes: np.ndarray

    def __init__(
        self,
        size: int = 0,
        *,
        alpha: float = 0.3,
        quarantine_below: float = 0.35,
        release_at: float = 0.6,
        min_rejections: int = 2,
        max_quarantine_fraction: float = 0.5,
        floor: float = 0.05,
    ) -> None:
        for ok, what in (
            (0.0 < alpha <= 1.0, "alpha must be in (0, 1]"),
            (0.0 <= quarantine_below < release_at <= 1.0,
             "need 0 <= quarantine_below < release_at <= 1"),
            (min_rejections >= 1, "min_rejections must be >= 1"),
            (0.0 < max_quarantine_fraction <= 1.0,
             "max_quarantine_fraction must be in (0, 1]"),
            (0.0 < floor < 1.0, "floor must be in (0, 1)"),
        ):
            if not ok:
                raise ValueError(what)
        self.alpha = alpha
        self.quarantine_below = quarantine_below
        self.release_at = release_at
        self.min_rejections = min_rejections
        self.max_quarantine_fraction = max_quarantine_fraction
        self.floor = floor
        for name, dtype, blank in _COLUMNS:
            setattr(self, name, np.full(size, blank, dtype))
        self._keyed = size == 0
        self._slots: dict[str, int] = {}  # keyed ledger: id -> slot
        self._ids: list[str | None] = []  # keyed ledger: slot -> id
        self._free: list[int] = []
        self._touched: list[np.ndarray] = []
        self._deferred = _NO_SLOTS

    def slot(self, node_id: str) -> int:
        """``node_id``'s slot in a keyed ledger, allocated on first use."""
        slot = self._slots.get(node_id)
        if slot is not None:
            return slot
        if not self._keyed:
            raise KeyError(f"index ledger has no id {node_id!r}")
        if self._free:
            slot = self._free.pop()
            self._ids[slot] = node_id
        else:
            slot = len(self._ids)
            self._ids.append(node_id)
            for name, dtype, blank in _COLUMNS:
                column = np.append(getattr(self, name), np.full(1, blank, dtype))
                setattr(self, name, column)
        self._slots[node_id] = slot
        return slot

    def forget(self, node_id: str) -> None:
        """Drop a node's standing (it left for good); its slot is reused."""
        slot = self._slots.pop(node_id, None)
        if slot is not None:
            self._ids[slot] = None
            for name, _, blank in _COLUMNS:
                getattr(self, name)[slot] = blank
            self._free.append(slot)

    def __len__(self) -> int:
        """Slots holding a node: tracked ids, or every index slot."""
        return len(self._slots) if self._keyed else self.trust.size

    def _names(self, slots: np.ndarray) -> list:
        if not self._keyed:
            return slots.tolist()
        return [self._ids[s] for s in slots.tolist()]

    def _order(self, slots: np.ndarray, primary: np.ndarray) -> np.ndarray:
        """``slots`` sorted by ``(primary, node id)``."""
        ties = np.array(self._names(slots)) if self._keyed else slots
        return slots[np.lexsort((ties, primary))]

    def trust_of(self, node_id: str) -> float:
        slot = self._slots.get(node_id)
        return 1.0 if slot is None else float(self.trust[slot])

    def row_trust(self, sources: Iterable[str]) -> float:
        """A row's trust: its least trusted contributor (1 if none)."""
        return min(map(self.trust_of, sources), default=1.0)

    def is_quarantined(self, node_id: str) -> bool:
        slot = self._slots.get(node_id)
        return slot is not None and bool(self.in_quarantine[slot])

    @property
    def quarantined(self) -> set[str]:
        return set(self._names(np.flatnonzero(self.in_quarantine)))

    def snapshot(self) -> dict[str, float]:
        """Trust per tracked id (only ids with a slot appear)."""
        return {
            node_id: float(self.trust[slot])
            for node_id, slot in sorted(self._slots.items())
        }

    def observe(self, slots: ArrayLike, rejected: ArrayLike) -> None:
        """Fold one verdict per slot (True = the row was rejected).  Each
        node contributes one row per round, so no slot repeats."""
        slots = np.asarray(slots, dtype=np.int64)
        miss = np.asarray(rejected, dtype=bool)
        if slots.shape != miss.shape:
            raise ValueError("slots and rejected must align")
        if sanitize := contracts.enabled():
            _require(np.unique(slots).size == slots.size, "slot seen twice")
            before = self.accepted[slots] + self.rejected[slots]
        # alpha * outcome is exactly alpha or 0.0: one multiply saved.
        trust = self.trust[slots]
        trust *= 1.0 - self.alpha
        trust += np.where(miss, 0.0, self.alpha)
        self.trust[slots] = np.maximum(trust, self.floor, out=trust)
        self.accepted[slots] += ~miss
        self.rejected[slots[miss]] += 1
        self._touched.append(slots)
        if sanitize:
            after = self.accepted[slots] + self.rejected[slots]
            _require((after == before + 1).all(),
                     "a verdict count did not advance by one")
            self._check()

    def update_quarantine(
        self, round_index: int = 0, member_count: int | None = None
    ) -> tuple[list, list]:
        """Apply quarantine/release to the slots observed since the last
        call and to offenders the cap held back, never the whole table.
        Returns ``(newly_quarantined, released)`` ids, sorted; the cap
        counts ``member_count`` members (default ``len(self)``)."""
        parts, self._touched = self._touched, []
        if self._deferred.size:
            parts.append(self._deferred)
        # One observe needs no dedup: it never repeats a slot.
        slots = parts[0] if len(parts) == 1 else np.unique(
            np.concatenate([_NO_SLOTS, *parts])
        )
        held = self.in_quarantine[slots]
        trust = self.trust[slots]
        released = newly = self._deferred = _NO_SLOTS
        if np.count_nonzero(held):
            released = slots[held & (trust >= self.release_at)]
            self.in_quarantine[released] = False
            self.quarantined_at[released] = 0
        low = trust < self.quarantine_below
        if np.count_nonzero(low):
            offenders = slots[
                low & ~held & (self.rejected[slots] >= self.min_rejections)
            ]
            offenders = self._order(offenders, self.trust[offenders])
            members = len(self) if member_count is None else member_count
            cap = max(int(self.max_quarantine_fraction * members), 1)
            room = max(cap - int(self.in_quarantine.sum()), 0)
            newly, self._deferred = offenders[:room], offenders[room:]
            self.in_quarantine[newly] = True
            self.quarantined_at[newly] = round_index
            if contracts.enabled() and newly.size:
                _require(self.in_quarantine.sum() <= cap, "over the cap")
        if contracts.enabled():
            _require(not np.intersect1d(newly, released).size,
                     "one update released and quarantined a slot")
            self._check()
        if not (newly.size or released.size):  # the usual case: skip names
            return [], []
        return sorted(self._names(newly)), sorted(self._names(released))

    def probe_candidates(self, limit: int) -> list[str]:
        """Quarantined nodes to probe this round: longest-quarantined
        first (they have had the most time to recover), id tie-break."""
        held = np.flatnonzero(self.in_quarantine)
        chosen = self._order(held, self.quarantined_at[held])[:max(limit, 0)]
        self.probes[chosen] += 1
        return self._names(chosen)

    def _check(self) -> None:
        """Sanitizer: trust in [floor, 1] (NaN and inf fail), counts >= 0."""
        trust = self.trust
        _require(((trust >= self.floor) & (trust <= 1.0)).all(),
                 "trust not finite in [floor, 1]")
        for counts in (self.accepted, self.rejected, self.probes):
            _require((counts >= 0).all(), "negative count")
