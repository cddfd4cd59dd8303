"""City-scale rounds: per-zone solves merged into one field.

:class:`MegaSimulation` drives the struct-of-arrays population
(:mod:`repro.sim.population`) through full sensing rounds at 100k+
nodes, reusing the middleware's collect/solve/finalize phase split in
one process:

- **collect**: tick mobility, draw the per-zone batched sensing round,
  push one array-backed SENSE_REPORT frame per zone through the
  :class:`repro.network.bus.MessageBus` — every RNG draw and every
  piece of transport accounting happens here, in deterministic zone
  order;
- **solve** (pure): each delivered zone frame becomes a pure payload
  (cells, values, stds) solved by OMP against the memoised zone-shaped
  DCT basis from the registry, zone by zone;
- **finalize**: merge zone estimates into the global field, serve
  stale estimates for zones whose frame was lost or shed (the PR-6
  overload idiom), and feed the robust layer's per-report trim verdicts
  into the population's trust ledger — the broker's
  :class:`repro.middleware.trust.TrustManager`, indexed by node (the
  PR-4 Byzantine idiom).

Zones solve one after another in this process.  A zone takes under
2 ms, so a process pool's dispatch and pickling cost as much as the
work: two forked workers did not beat one process at 100k nodes and 64
zones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.omp import omp
from ..core.registry import shared_dct2_basis
from ..core.robust import robust_reconstruct
from ..middleware.config import GLS_STD_FLOOR
from ..network.bus import MessageBus
from ..network.frames import decode_zone_report, encode_zone_report
from .population import NodePopulation, PopulationConfig

__all__ = ["MegaConfig", "MegaRoundRecord", "MegaSimulation"]

_CLOUD = "mega-cloud"
_UPLINK = "mega-uplink"


@dataclass(frozen=True)
class MegaConfig:
    """One city-scale experiment: population plus solve policy.

    ``sparsity`` is a cap, not a target: every zone fit stops at the
    noise floor (:func:`repro.core.omp.omp`'s ``stop_at_noise``) and
    admits at most this many atoms.

    ``sharded`` is kept only so that callers passing ``sharded=False``
    still construct; the process-pool solve it selected is deleted, and
    ``True`` is refused.
    """

    population: PopulationConfig
    reports_per_zone: int = 128
    sparsity: int = 16
    ticks_per_round: int = 1
    sharded: bool = False
    inbox_capacity: int | None = None
    drop_policy: str = "drop-newest"

    def __post_init__(self) -> None:
        if self.reports_per_zone < 1:
            raise ValueError("reports_per_zone must be positive")
        if self.sparsity < 1:
            raise ValueError("sparsity must be positive")
        if self.ticks_per_round < 1:
            raise ValueError("ticks_per_round must be positive")
        if self.sharded:
            raise ValueError(
                "the sharded process-pool solve is deleted; every round "
                "solves in-process (sharded must be False)"
            )


@dataclass
class MegaRoundRecord:
    """Outcome of one global round."""

    round_index: int
    zones_solved: int
    zones_stale: int
    reports_delivered: int
    reports_rejected: int
    rmse: float
    quarantined_nodes: int


# -- pure solve kernel ---------------------------------------------------


def _zone_scratch(reports: int, cells: int) -> np.ndarray:
    """Workspace for :func:`_solve_zone`: the zone's sampled basis rows
    and one fit's subset of them."""
    return np.empty((2, reports, cells))


def _solve_zone(
    payload: tuple[int, np.ndarray, np.ndarray, np.ndarray, int],
    basis: np.ndarray,
    scratch: np.ndarray | None = None,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Solve one zone payload against the dense zone basis.

    The OMP solve is wrapped in :func:`repro.core.robust.robust_reconstruct`
    (trim mode, the PR-4 Byzantine layer): gross outliers are expelled
    against a concentration-fit reference *before* the final fit, so a
    stuck or adversarial sensor cannot drag the estimate it is judged
    by.  On clean rounds trim rejects ~0.01 % of rows (Gaussian tails
    past the 3.5-sigma cut); a zone that loses none gets the naive OMP
    fit back untouched.

    Every fit stops at the noise floor (``stop_at_noise``; at a
    per-sample SNR below one, filling all K atoms fits noise).  Trim's
    equal-weight concentration fits (``cov=None``) whiten by one scalar,
    the zone's mean claimed variance: every row keeps equal weight, so
    an understated claim still buys no leverage, and the stop gets the
    noise scale an equal-weight residual row carries on average.  The
    median sits 2-3x below that under the handset tier mix, and fits
    whitened by it admit atoms of pure noise.

    Returns ``(zone_id, zone_field, rejected)``
    where ``rejected`` is the per-report verdict mask for trust
    accounting.

    ``scratch`` is an optional ``(2, >=M, N)`` gather workspace
    (:func:`_zone_scratch`) the caller keeps across zones and rounds.
    Every slice of it is written before it is read and nothing returned
    aliases it; without one, a zone-sized workspace is allocated here.
    Reusing it keeps MB-scale allocations out of the round: mapped,
    page-faulted and unmapped on every zone, they cost up to a quarter
    of the solve and swing with the host.

    Pure: no RNG (trim's multi-start screening is deterministic) and no
    shared mutable state that a result depends on, so zone order cannot
    change a result.
    """
    zone_id, cells, values, stds, sparsity = payload
    cells = np.asarray(cells, dtype=int)
    values = np.asarray(values, dtype=float)
    stds = np.maximum(np.asarray(stds, dtype=float), GLS_STD_FLOOR)
    # The trim screening reads an estimate only at the reporting cells,
    # so every fit predicts at those rows alone (rows are addressed by
    # report number) and the full zone field is synthesised once, from
    # the accepted fit's support.
    m = cells.size
    if scratch is None:
        scratch = _zone_scratch(m, basis.shape[1])
    rows = np.take(basis, cells, axis=0, out=scratch[0, :m])
    variances = stds**2
    equal_weight = np.mean(variances)

    def synthesise(atoms, result):
        support = result.support
        return atoms[:, support] @ result.coefficients[support]

    def fit(vals, idx, cov):
        # idx is an ascending subset of the report numbers passed below:
        # all m of them is ``rows`` itself, read in place.  A subset is
        # in range, so mode="clip" skips the bounds-checking default's
        # copy through a temporary the size of ``out``.
        if len(idx) == m:
            phi_rows = rows
        else:
            phi_rows = np.take(
                rows, idx, axis=0, out=scratch[1, : len(idx)], mode="clip"
            )
        k = min(sparsity, phi_rows.shape[0], phi_rows.shape[1])
        result = omp(
            phi_rows,
            vals,
            k,
            covariance=equal_weight if cov is None else cov,
            stop_at_noise=True,
        )
        return result, synthesise(rows, result)

    robust = robust_reconstruct(
        fit,
        values,
        np.arange(values.size),
        covariance=variances,
        noise_stds=stds,
        mode="trim",
    )
    return zone_id, synthesise(basis, robust.result), robust.row_rejected()


class MegaSimulation:
    """Drives rounds over a :class:`NodePopulation` at city scale."""

    def __init__(
        self,
        config: MegaConfig,
        *,
        network_fault_injector=None,
        sensor_fault_injector=None,
    ) -> None:
        self.config = config
        self.population = NodePopulation(config.population)
        pcfg = config.population
        self.basis = shared_dct2_basis(pcfg.zone_width, pcfg.zone_height)
        self.truth = self._build_truth()
        self.estimate = np.zeros((pcfg.width, pcfg.height))
        self._solved_once: set[int] = set()
        self.sensor_fault_injector = sensor_fault_injector
        self.bus = MessageBus(
            seed=pcfg.seed,
            fault_injector=network_fault_injector,
            inbox_capacity=config.inbox_capacity,
            drop_policy=config.drop_policy,
        )
        self.bus.register(_UPLINK)
        self._cloud = self.bus.register(_CLOUD)
        self.rounds_run = 0
        self._scratch = _zone_scratch(
            config.reports_per_zone, self.basis.shape[1]
        )

    def _build_truth(self) -> np.ndarray:
        """Per-zone sparse ground truth (exactly recoverable fields).

        Each zone's block is synthesized from a handful of low-index
        DCT coefficients, so the compressive round has something real
        to recover.  The stream is derived from the population seed but
        kept separate from every simulation stream.
        """
        pcfg = self.config.population
        rng = np.random.default_rng(
            np.random.SeedSequence([pcfg.seed, 0x7431])
        )
        truth = np.zeros((pcfg.width, pcfg.height))
        zw, zh = pcfg.zone_width, pcfg.zone_height
        cells = zw * zh
        k = max(1, min(self.config.sparsity // 2, cells))
        pool_size = max(k, min(4 * self.config.sparsity, cells))
        for zx in range(pcfg.zones_x):
            for zy in range(pcfg.zones_y):
                support = rng.choice(pool_size, size=k, replace=False)
                coeffs = np.zeros(cells)
                coeffs[support] = rng.normal(0.0, 3.0, size=k)
                block = (self.basis @ coeffs).reshape(zw, zh)
                truth[
                    zx * zw : (zx + 1) * zw, zy * zh : (zy + 1) * zh
                ] = block
        return truth

    # -- round phases --------------------------------------------------

    def _collect(self) -> list:
        """Tick mobility, sense, and carry frames over the bus."""
        cfg = self.config
        for _ in range(cfg.ticks_per_round):
            self.population.tick()
        now = float(self.rounds_run)
        frames = self.population.sense_round(
            self.truth,
            round_index=self.rounds_run,
            reports_per_zone=cfg.reports_per_zone,
            fault_injector=self.sensor_fault_injector,
            now=now,
        )
        for frame in frames:
            message = encode_zone_report(
                frame, source=_UPLINK, destination=_CLOUD, timestamp=now
            )
            self.bus.send(message, strict=False)
        return [decode_zone_report(m) for m in self._cloud.drain()]

    def _solve(
        self, frames: list
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Solve every delivered zone in-process, in delivery order."""
        payloads = []
        for frame in frames:
            cells = self.population.cells_in_zone(frame.node_ids)
            payloads.append(
                (
                    frame.zone_id,
                    cells,
                    np.asarray(frame.values),
                    np.asarray(frame.noise_stds),
                    self.config.sparsity,
                )
            )
        return [_solve_zone(p, self.basis, self._scratch) for p in payloads]

    def _finalize(self, frames: list, solved) -> MegaRoundRecord:
        """Merge estimates, serve stale zones, update trust."""
        pcfg = self.config.population
        zw, zh = pcfg.zone_width, pcfg.zone_height
        by_zone = {frame.zone_id: frame for frame in frames}
        rejected_total = 0
        for zone_id, estimate, rejected in solved:
            zx, zy = zone_id // pcfg.zones_y, zone_id % pcfg.zones_y
            self.estimate[
                zx * zw : (zx + 1) * zw, zy * zh : (zy + 1) * zh
            ] = estimate.reshape(zw, zh)
            self._solved_once.add(zone_id)
            frame = by_zone[zone_id]
            rejected_total += int(rejected.sum())
            self.population.update_trust(frame.node_ids, rejected)
        solved_ids = {zone_id for zone_id, _, _ in solved}
        stale = len(self._solved_once - solved_ids)
        record = MegaRoundRecord(
            round_index=self.rounds_run,
            zones_solved=len(solved),
            zones_stale=stale,
            reports_delivered=sum(f.report_count for f in frames),
            reports_rejected=rejected_total,
            rmse=float(
                np.sqrt(np.mean((self.estimate - self.truth) ** 2))
            ),
            quarantined_nodes=int(self.population.quarantined.sum()),
        )
        self.rounds_run += 1
        return record

    def run_round(self) -> MegaRoundRecord:
        """One full collect/solve/finalize round."""
        frames = self._collect()
        solved = self._solve(frames)
        return self._finalize(frames, solved)
