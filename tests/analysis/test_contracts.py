"""Runtime-sanitizer tests (repro.analysis.contracts).

Covers the acceptance scenarios: an injected NaN is caught at the
solver boundary with a useful error, an attempted mutation of a
registry-shared basis raises, and thread-ownership asserts trip when a
driver transition runs off its owning thread.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis import contracts
from repro.core.basis import dct_basis
from repro.core.reconstruction import reconstruct
from repro.core.registry import clear_registry, shared_basis
from repro.core.robust import robust_reconstruct


@pytest.fixture
def sanitize():
    """Arm the sanitizer for one test, restoring the prior state after.

    Guards are reset on entry as well: under ``REPRO_SANITIZE=1`` the
    registry tests above guard arrays without using this fixture.
    """
    prior = contracts.enabled()
    contracts.reset_guards()
    clear_registry()
    contracts.enable(True)
    yield
    contracts.enable(prior)
    contracts.reset_guards()
    clear_registry()


class TestValueContracts:
    def test_check_finite_passes_clean(self, sanitize):
        contracts.check_finite("x", np.arange(4, dtype=float))

    def test_check_finite_names_offender_and_index(self, sanitize):
        bad = np.array([0.0, 1.0, np.nan, np.inf])
        with pytest.raises(contracts.ContractViolation) as err:
            contracts.check_finite("measurements", bad, context="reconstruct")
        message = str(err.value)
        assert "measurements" in message
        assert "reconstruct" in message
        assert "2 non-finite" in message
        assert "flat index 2" in message

    def test_check_finite_ignores_integer_arrays(self, sanitize):
        contracts.check_finite("locations", np.arange(5))

    def test_check_vector_shape_mismatch(self, sanitize):
        with pytest.raises(contracts.ContractViolation, match="shape"):
            contracts.check_vector("x_hat", np.zeros((2, 2)), 4)

    def test_check_shape_wildcards(self, sanitize):
        contracts.check_shape("rows", np.zeros((3, 7)), (3, None))
        with pytest.raises(contracts.ContractViolation):
            contracts.check_shape("rows", np.zeros((3, 7)), (4, None))

    def test_contract_violation_is_assertion_error(self):
        assert issubclass(contracts.ContractViolation, AssertionError)


class TestSolverBoundary:
    def test_nan_measurement_caught_at_reconstruct(self, sanitize):
        phi = dct_basis(32)
        values = np.ones(8)
        values[3] = np.nan
        locations = np.arange(8)
        with pytest.raises(contracts.ContractViolation) as err:
            reconstruct(values, locations, phi, solver="chs")
        assert "measurements" in str(err.value)

    def test_nan_caught_at_robust_reconstruct(self, sanitize):
        def fit(values, locations, covariance):  # pragma: no cover
            raise AssertionError("must fail before any fit")

        values = np.ones(12)
        values[0] = np.inf
        with pytest.raises(contracts.ContractViolation, match="values"):
            robust_reconstruct(fit, values, np.arange(12))

    def test_covariance_shape_checked(self, sanitize):
        phi = dct_basis(16)
        with pytest.raises(contracts.ContractViolation, match="covariance"):
            reconstruct(
                np.ones(4),
                np.arange(4),
                phi,
                solver="ols",
                covariance=np.eye(5),
            )

    def test_covariance_variance_vector_length_checked(self, sanitize):
        phi = dct_basis(16)
        values = np.array([1.0, 2.0, 1.5, 0.5])
        reconstruct(
            values, np.arange(4), phi, solver="gls", sparsity=2,
            covariance=np.full(4, 0.04),
        )
        with pytest.raises(contracts.ContractViolation, match="covariance"):
            reconstruct(
                values, np.arange(4), phi, solver="gls", sparsity=2,
                covariance=np.full(5, 0.04),
            )

    def test_clean_solve_unaffected(self, sanitize):
        phi = dct_basis(32)
        rng = np.random.default_rng(7)
        alpha = np.zeros(32)
        alpha[[0, 3]] = [2.0, -1.0]
        x = phi @ alpha
        loc = np.sort(rng.choice(32, size=16, replace=False))
        result = reconstruct(x[loc], loc, phi, solver="chs")
        assert np.allclose(result.x_hat, x, atol=1e-6)

    def test_disabled_sanitizer_lets_nan_through_boundary(self):
        prior = contracts.enabled()
        contracts.enable(False)
        try:
            phi = dct_basis(16)
            values = np.ones(6)
            values[2] = np.nan
            # No ContractViolation: the check is off.  (The solver
            # output is garbage — that is exactly the failure mode the
            # sanitizer exists to catch early.)
            result = reconstruct(values, np.arange(6), phi, solver="ols")
            assert result.x_hat.shape == (16,)
        finally:
            contracts.enable(prior)


class TestSharedArrayGuard:
    def test_registry_array_is_read_only(self):
        clear_registry()
        phi = shared_basis("dct", 32)
        assert not phi.flags.writeable
        with pytest.raises(ValueError):
            phi[0, 0] = 123.0

    def test_guarded_view_cannot_be_made_writeable(self):
        clear_registry()
        phi = shared_basis("dct", 32)
        with pytest.raises(ValueError):
            phi.setflags(write=True)

    def test_mutation_behind_guard_detected(self, sanitize):
        owner = np.arange(6, dtype=float)
        view = contracts.guard_shared_array(owner)
        assert contracts.guarded_array_count() == 1
        assert contracts.verify_shared_arrays() == 1
        # Bypass the write flag the way a buggy extension (or a saved
        # pre-freeze buffer reference) could.
        owner.flags.writeable = True
        owner[0] = 999.0
        with pytest.raises(contracts.ContractViolation, match="mutated"):
            contracts.verify_shared_arrays()
        assert view[0] == 999.0  # same memory: corruption is shared

    def test_reset_guards(self, sanitize):
        contracts.guard_shared_array(np.ones(3))
        contracts.reset_guards()
        assert contracts.guarded_array_count() == 0
        assert contracts.verify_shared_arrays() == 0


class TestThreadOwnership:
    def test_same_thread_passes(self, sanitize):
        contracts.assert_thread(threading.get_ident(), "driver")

    def test_foreign_thread_raises(self, sanitize):
        owner = threading.get_ident()
        caught: list[BaseException] = []

        def worker():
            try:
                contracts.assert_thread(owner, "ZoneRoundDriver._finish")
            except BaseException as exc:  # noqa: BLE001
                caught.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert len(caught) == 1
        assert isinstance(caught[0], contracts.ContractViolation)
        assert "ZoneRoundDriver._finish" in str(caught[0])

    def test_noop_when_disabled(self):
        prior = contracts.enabled()
        contracts.enable(False)
        try:
            contracts.assert_thread(-1, "driver")  # wrong owner, no raise
        finally:
            contracts.enable(prior)
