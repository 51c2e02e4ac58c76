"""Borehole simulators, Latin hypercube designs, and the replicated
benchmark loop."""

import math

import numpy as np
import pytest

from mfcokrig.bench import (
    BOREHOLE_BOX,
    BOREHOLE_DIM,
    BenchmarkReport,
    borehole_high,
    borehole_low,
    lhs_design,
    run_borehole_benchmark,
    scale_to_box,
)
from mfcokrig.estimate import OptimOptions
from mfcokrig.exceptions import DomainError, InvalidArgumentError
from mfcokrig.kernels import KernelSpec

# flow rates at the center of the physical box, frozen from a by-hand
# evaluation of the two formulas
HIGH_AT_CENTER = 70.87291263681897
LOW_AT_CENTER = 56.398719259575394


def _center():
    return np.array([(lo + hi) / 2.0 for _, lo, hi in BOREHOLE_BOX])


class TestBoreholeFunctions:
    def test_center_values(self):
        x = _center()
        assert borehole_high(x) == pytest.approx(HIGH_AT_CENTER, rel=1e-14)
        assert borehole_low(x) == pytest.approx(LOW_AT_CENTER, rel=1e-14)

    def test_low_fidelity_is_biased_downward_at_center(self):
        x = _center()
        assert borehole_low(x) < borehole_high(x)

    def test_monotone_in_head_difference(self):
        x = _center()
        up = x.copy()
        up[3] = 1100.0  # raise the upper head
        assert borehole_high(up) > borehole_high(x)

    def test_box_validation(self):
        x = _center()
        x[0] = 0.2  # r_w above its range
        with pytest.raises(DomainError):
            borehole_high(x)
        with pytest.raises(InvalidArgumentError):
            borehole_high(np.ones(5))

    @pytest.mark.parametrize("end", ["low", "high"])
    @pytest.mark.parametrize("k", range(BOREHOLE_DIM))
    def test_each_field_is_checked_at_both_ends(self, k, end):
        """A point one step outside either end of a field's range raises
        DomainError naming that field in both simulators; the end itself
        is inside."""
        name, lo, hi = BOREHOLE_BOX[k]
        inside = _center()
        inside[k] = lo if end == "low" else hi
        outside = inside.copy()
        outside[k] = np.nextafter(inside[k], -np.inf if end == "low" else np.inf)
        for simulator in (borehole_low, borehole_high):
            assert math.isfinite(simulator(inside))
            with pytest.raises(DomainError, match=f"^{name}="):
                simulator(outside)


class TestScaleToBox:
    def test_endpoints_map_to_box_corners(self):
        corners = scale_to_box(np.vstack([np.zeros(8), np.ones(8)]))
        lo = np.array([b[1] for b in BOREHOLE_BOX])
        hi = np.array([b[2] for b in BOREHOLE_BOX])
        np.testing.assert_array_equal(corners[0], lo)
        np.testing.assert_array_equal(corners[1], hi)

    def test_rejects_points_outside_cube(self):
        U = np.full((1, 8), 0.5)
        U[0, 3] = 1.2
        with pytest.raises(DomainError):
            scale_to_box(U)
        with pytest.raises(InvalidArgumentError):
            scale_to_box(np.zeros((2, 3)))


class TestLhsDesign:
    def test_one_point_per_stratum(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(4, 40))
            d = int(rng.integers(1, 6))
            U = lhs_design(n, d, seed=int(rng.integers(1 << 30)))
            for k in range(d):
                strata = np.floor(U[:, k] * n).astype(int)
                assert sorted(strata) == list(range(n))

    def test_deterministic_and_generator_input(self):
        a = lhs_design(9, 3, seed=42)
        b = lhs_design(9, 3, seed=42)
        np.testing.assert_array_equal(a, b)
        c = lhs_design(9, 3, seed=np.random.default_rng(42))
        np.testing.assert_array_equal(a, c)

    def test_validation(self):
        for n, d in ((0, 3), (5, 0), (2.5, 3), ("3", 2), (True, 2)):
            with pytest.raises(InvalidArgumentError):
                lhs_design(n, d)

    def test_seed_is_a_generator_or_an_integer_at_least_zero(self):
        for seed in (-1, 1.5, "x", None, True, np.random.SeedSequence(1)):
            with pytest.raises(InvalidArgumentError, match="seed"):
                lhs_design(4, 2, seed=seed)
        np.testing.assert_array_equal(
            lhs_design(4, 2, seed=np.int64(3)), lhs_design(4, 2, seed=3)
        )


@pytest.fixture(scope="module")
def small_report():
    opts = OptimOptions(seed=0, n_starts=2, tol=1e-6, max_evals=250)
    return run_borehole_benchmark(
        n_low=14, n_high=7, n_test=5, seed=3, n_reps=2, opts=opts
    )


class TestBenchmarkLoop:
    def test_report_shape_and_sanity(self, small_report):
        rep = small_report
        assert rep.n_failed == 0
        assert len(rep.replicates) == 2
        assert math.isfinite(rep.rmspe) and rep.rmspe > 0.0
        assert 0.0 <= rep.cvg95 <= 1.0
        assert rep.alci95 > 0.0
        assert rep.config["n_low"] == 14
        for r in rep.replicates:
            assert len(r["phi_level1"]) == BOREHOLE_DIM
            assert len(r["phi_level2"]) == BOREHOLE_DIM

    def test_deterministic_given_seed(self, small_report):
        opts = OptimOptions(seed=0, n_starts=2, tol=1e-6, max_evals=250)
        again = run_borehole_benchmark(
            n_low=14, n_high=7, n_test=5, seed=3, n_reps=2, opts=opts
        )
        assert again.to_dict() == small_report.to_dict()

    def test_to_dict_is_json_clean(self, small_report):
        import json

        text = json.dumps(small_report.to_dict(), allow_nan=False)
        assert "rmspe" in text

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            run_borehole_benchmark(n_low=5, n_high=9)
        with pytest.raises(InvalidArgumentError):
            run_borehole_benchmark(spec=KernelSpec(family="matern", shape=2.5, dims=3))
        with pytest.raises(InvalidArgumentError):
            run_borehole_benchmark(method="bogus")
        for seed in (-1, "a"):
            with pytest.raises(InvalidArgumentError, match="seed"):
                run_borehole_benchmark(seed=seed)

    @pytest.mark.parametrize(
        "name, value",
        [("n_low", "20"), ("n_high", 2.0), ("n_test", True), ("n_reps", 1.5), ("n_reps", 0),
         ("n_test", None)],
    )
    def test_sizes_must_be_integers_at_least_one(self, name, value):
        with pytest.raises(InvalidArgumentError, match=name):
            run_borehole_benchmark(**{name: value})


class TestReportCleaning:
    def test_non_finite_becomes_none(self):
        report = BenchmarkReport(
            rmspe=float("nan"),
            cvg95=0.9,
            alci95=float("inf"),
            replicates=({"replicate": 0, "rmspe": float("nan"), "failed": True},),
            config={},
            seed=0,
            n_failed=1,
        )
        doc = report.to_dict()
        assert doc["rmspe"] is None
        assert doc["alci95"] is None
        assert doc["replicates"][0]["rmspe"] is None
        assert doc["cvg95"] == 0.9
