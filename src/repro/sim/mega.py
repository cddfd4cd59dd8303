"""City-scale rounds: sharded zone solves over a forked basis.

:class:`MegaSimulation` drives the struct-of-arrays population
(:mod:`repro.sim.population`) through full sensing rounds at 100k+
nodes, reusing the middleware's collect/solve/finalize phase split at
process scale:

- **collect** (serial, parent): tick mobility, draw the per-zone
  batched sensing round, push one array-backed SENSE_REPORT frame per
  zone through the :class:`repro.network.bus.MessageBus` — every RNG
  draw and every piece of transport accounting happens here, in one
  process, in deterministic zone order;
- **solve** (parallel, pure): each delivered zone frame becomes a pure
  payload (cells, values, stds) solved by OMP against the zone-shaped
  DCT basis.  Serial mode solves in-process against the memoised
  registry array; sharded mode fans payloads out to forked worker
  processes that read the *same bytes*, the parent's basis handed over
  at fork and shared copy-on-write — which is why the two modes are
  bit-identical (Hypothesis-pinned in ``tests/sim/test_mega.py``);
- **finalize** (serial, parent): merge zone estimates into the global
  field, serve stale estimates for zones whose frame was lost or shed
  (the PR-6 overload idiom), and feed the robust layer's per-report
  trim verdicts into the population's trust ledger — the broker's
  :class:`repro.middleware.trust.TrustManager`, indexed by node (the
  PR-4 Byzantine idiom).

Workers never construct their own RNG (solves are pure); reprolint rule
RPR009 enforces that any worker that *does* need randomness builds it
from a seed the parent derived via
:func:`repro.core.registry.spawn_shard_seeds`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from ..analysis import contracts
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
    """

    population: PopulationConfig
    reports_per_zone: int = 128
    sparsity: int = 16
    ticks_per_round: int = 1
    sharded: bool = False
    workers: int = 2
    inbox_capacity: int | None = None
    drop_policy: str = "drop-newest"

    def __post_init__(self) -> None:
        if self.reports_per_zone < 1:
            raise ValueError("reports_per_zone must be positive")
        if self.sparsity < 1:
            raise ValueError("sparsity must be positive")
        if self.ticks_per_round < 1:
            raise ValueError("ticks_per_round must be positive")
        if self.sharded and self.workers < 1:
            raise ValueError("sharded mode needs at least one worker")


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


# -- pure solve kernel (runs in parent or worker, identically) ----------

# Worker-process module globals: the parent's basis and a gather
# workspace.  Populated by the pool initializer.
_WORKER_BASIS: np.ndarray | None = None
_WORKER_SCRATCH: np.ndarray | None = None


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

    Pure: no RNG (trim's multi-start screening is deterministic), no
    shared mutable state that a result depends on — the property that
    lets the sharded path claim bit-identity with the serial one.
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


def _shard_worker_init(
    basis: np.ndarray, sanitize: bool, reports: int
) -> None:
    """Pool initializer: keep the inherited basis and a workspace."""
    global _WORKER_BASIS, _WORKER_SCRATCH
    if sanitize and not contracts.enabled():
        contracts.enable()
    _WORKER_BASIS = basis
    _WORKER_SCRATCH = _zone_scratch(reports, basis.shape[1])


def _solve_zone_worker(
    payload: tuple[int, np.ndarray, np.ndarray, np.ndarray, int],
) -> tuple[int, np.ndarray, np.ndarray]:
    """Worker-side entry: solve against the inherited basis.

    Under the sanitizer the worker re-checksums its guard table after
    the solve.  It inherited the parent's table at fork, so a worker
    that wrote to its copy-on-write basis fails this task, and
    ``pool.map`` re-raises the violation in the parent.
    """
    assert _WORKER_BASIS is not None, "worker initializer did not run"
    solved = _solve_zone(payload, _WORKER_BASIS, _WORKER_SCRATCH)
    contracts.verify_shared_arrays(context="mega shard worker")
    return solved


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
        self._pool: ProcessPoolExecutor | None = None
        if config.sharded:
            self._pool = ProcessPoolExecutor(
                max_workers=config.workers,
                # Fork hands initargs to each child in memory, so every
                # worker reads the parent's basis pages copy-on-write.
                # Under spawn they would be pickled once per worker.
                mp_context=get_context("fork"),
                initializer=_shard_worker_init,
                initargs=(
                    self.basis,
                    contracts.enabled(),
                    config.reports_per_zone,
                ),
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
        """Solve every delivered zone, serially or across the pool."""
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
        if self._pool is None:
            return [
                _solve_zone(p, self.basis, self._scratch) for p in payloads
            ]
        results = list(self._pool.map(_solve_zone_worker, payloads))
        # Each worker checked its own copy; this checks the parent's.
        contracts.verify_shared_arrays(context="mega shard fan-out")
        return results

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

    # -- lifecycle -----------------------------------------------------

    def shutdown(self) -> None:
        """Tear down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "MegaSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
