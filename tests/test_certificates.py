import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledforms import (
    ConstantsBundle,
    accretivity_certificate,
    analyticity_angle,
    continuity_bound,
    ellipticity_certificate,
    gershgorin_check,
    min_symmetric_eigenvalue,
    run_all_certificates,
    spectral_norm,
    stability_check,
    symmetric_part,
)
from coupledforms import cli
from coupledforms.errors import DimensionError, ValidationError
from coupledforms.registry import CERTIFICATES


def bundle(alpha, omega=None, m_diag=None, e=1.0):
    alpha = np.asarray(alpha, dtype=float)
    m = alpha.shape[0]
    if omega is None:
        omega = np.zeros((m, m))
    if m_diag is None:
        m_diag = np.zeros(m)
    return ConstantsBundle(alpha, omega, m_diag, e)


class TestSymmetricPart:
    def test_already_symmetric(self):
        a = [[2, -1], [-1, 2]]
        np.testing.assert_array_equal(symmetric_part(a), np.array(a, dtype=float))

    def test_nilpotent(self):
        np.testing.assert_array_equal(symmetric_part([[0, 1], [0, 0]]), [[0, 0.5], [0.5, 0]])

    def test_general(self):
        np.testing.assert_array_equal(symmetric_part([[1, 2], [4, 3]]), [[1, 3], [3, 3]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            symmetric_part(np.ones((2, 3)))

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_exactly(self, m, seed):
        a = np.random.default_rng(seed).uniform(-10, 10, (m, m))
        s = symmetric_part(a)
        np.testing.assert_array_equal(symmetric_part(s), s)


class TestMinSymmetricEigenvalue:
    @pytest.mark.parametrize(
        "matrix,expected",
        [
            ([[2, -1], [-1, 2]], 1.0),
            (np.eye(3), 1.0),
            ([[1, -2], [-2, 1]], -1.0),
        ],
    )
    def test_known_values(self, matrix, expected):
        assert min_symmetric_eigenvalue(matrix) == pytest.approx(expected, abs=1e-12)


class TestGershgorin:
    def test_dominant_passes(self):
        entry = gershgorin_check(bundle([[2, -1], [-1, 2]]))
        assert entry.passed
        assert entry.constants["margin_0"] == pytest.approx(1.0)
        assert entry.constants["margin_1"] == pytest.approx(1.0)

    def test_boundary_fails(self):
        # equality is excluded, the inequality is strict
        assert gershgorin_check(bundle([[1, -1], [-1, 1]])).status == "fail"

    def test_tridiagonal_passes(self):
        a = [[3, -1, 0], [-1, 3, -1], [0, -1, 3]]
        entry = gershgorin_check(bundle(a))
        assert entry.passed
        margins = [entry.constants[f"margin_{i}"] for i in range(3)]
        assert margins == pytest.approx([2.0, 1.0, 2.0])

    def test_soundness_against_eigen_oracle(self):
        # a passing dominance test must never contradict the eigen solver
        rng = np.random.default_rng(7)
        passes = 0
        for _ in range(200):
            m = int(rng.integers(1, 7))
            a = -np.abs(rng.standard_normal((m, m)))
            np.fill_diagonal(a, rng.uniform(-1.0, 3.0, m))
            if gershgorin_check(bundle(a)).passed:
                passes += 1
                assert min_symmetric_eigenvalue(a) > 0
        assert passes > 10

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_weakening_coupling_keeps_pass(self, seed, scale):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        a = -np.abs(rng.standard_normal((m, m)))
        np.fill_diagonal(a, rng.uniform(0.1, 3.0, m))
        if gershgorin_check(bundle(a)).passed:
            weaker = a * scale
            np.fill_diagonal(weaker, np.diag(a))
            assert gershgorin_check(bundle(weaker)).passed


class TestEllipticity:
    def test_coupled_laplacians(self):
        entry = ellipticity_certificate(bundle([[2, -1], [-1, 2]]))
        assert entry.passed
        assert entry.constants["alpha"] == pytest.approx(1.0)
        assert entry.constants["omega_norm"] == pytest.approx(0.0)

    def test_weak_coupling_norm(self):
        entry = ellipticity_certificate(bundle(np.eye(2), omega=[[0, 1], [1, 0]]))
        assert entry.passed
        assert entry.constants["alpha"] == pytest.approx(1.0)
        assert entry.constants["omega_norm"] == pytest.approx(1.0)

    def test_indefinite_fails(self):
        entry = ellipticity_certificate(bundle([[1, -2], [-2, 1]], omega=[[0, 5], [5, 0]]))
        assert entry.status == "fail"
        assert entry.constants["alpha"] == pytest.approx(-1.0)


class TestContinuityBound:
    def test_weak_coupling_only(self):
        b = bundle([[1, 0], [0, 1]], omega=[[0, 0.5], [0.5, 0]], m_diag=[1, 1], e=1.0)
        assert continuity_bound(b) == pytest.approx(1.5)

    def test_diagonal_only(self):
        b = bundle(np.eye(2), m_diag=[1, 1], e=17.0)
        assert continuity_bound(b) == pytest.approx(1.0)

    def test_coupling_enters_negated(self):
        b = bundle([[5, -1], [-1, 5]], m_diag=[2, 2])
        # the matrix entering the norm is [[2, 1], [1, 2]]
        assert continuity_bound(b) == pytest.approx(3.0)


class TestAccretivity:
    def test_zero_couplings_pass(self):
        assert accretivity_certificate(bundle(np.diag([1.0, 2.0]))).passed

    def test_negative_coupling_fails(self):
        entry = accretivity_certificate(bundle([[1, -1], [-1, 1]]))
        assert entry.status == "fail"
        assert entry.constants["coupling_min_eig"] == pytest.approx(-1.0)

    def test_weak_coupling_sign_fails(self):
        entry = accretivity_certificate(bundle(np.diag([1.0, 1.0]), omega=[[0, -1], [-1, 0]]))
        assert entry.status == "fail"
        assert entry.constants["weak_coupling_max_eig"] == pytest.approx(1.0)


class TestAnalyticityAngle:
    def test_bound_one(self):
        b = bundle(np.eye(2), m_diag=[1, 1])
        assert analyticity_angle(b) == pytest.approx(math.pi / 4)

    def test_bound_zero(self):
        b = bundle(np.eye(2))
        assert analyticity_angle(b) == pytest.approx(math.pi / 2)

    def test_bound_three_halves(self):
        b = bundle(np.eye(2), m_diag=[1.5, 1.5])
        assert analyticity_angle(b) == pytest.approx(0.5880026035475675, abs=1e-15)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(3)
        angles = []
        for bound in sorted(rng.uniform(0.0, 50.0, 20)):
            b = bundle(np.eye(2), m_diag=[bound, bound])
            angles.append(analyticity_angle(b))
        assert all(0 < a <= math.pi / 2 for a in angles)
        assert all(a1 >= a2 for a1, a2 in zip(angles, angles[1:]))


class TestStability:
    def test_decaying_system(self):
        assert stability_check(bundle([[2, -1], [-1, 2]])).passed

    def test_nonzero_weak_coupling_not_applicable(self):
        entry = stability_check(bundle([[2, -1], [-1, 2]], omega=[[0, 0.1], [0.1, 0]]))
        assert entry.status == "not-applicable"

    def test_singular_coupling_fails(self):
        entry = stability_check(bundle([[1, -1], [-1, 1]]))
        assert entry.status == "fail"
        assert entry.constants["lambda_min"] == pytest.approx(0.0, abs=1e-12)


class TestBundleValidation:
    def test_positive_off_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            bundle([[1, 0.5], [-0.5, 1]])

    def test_negative_m_diag_rejected(self):
        with pytest.raises(ValidationError):
            ConstantsBundle(np.eye(2), np.zeros((2, 2)), [-1.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ConstantsBundle(np.eye(2), np.zeros((3, 3)), [0.0, 0.0])

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValidationError, match="need at least one component"):
            ConstantsBundle(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0))

    def test_m_diag_length_rejected(self):
        with pytest.raises(DimensionError, match="m_diag must have length 2"):
            ConstantsBundle(np.eye(2), np.zeros((2, 2)), [0.0, 0.0, 0.0])

    def test_non_finite_constant_rejected(self):
        with pytest.raises(ValidationError, match="constants must be finite"):
            ConstantsBundle(np.eye(2), np.full((2, 2), np.nan), [0.0, 0.0])

    def test_negative_embedding_norm_rejected(self):
        with pytest.raises(ValidationError, match="embedding_norm must be >= 0"):
            bundle(np.eye(2), e=-1.0)

    def test_spectral_norm_of_an_empty_matrix(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0


class TestReport:
    def test_all_criteria_present_once(self):
        entries = run_all_certificates(bundle([[2, -1], [-1, 2]]))
        ids = [e.criterion for e in entries]
        assert ids == ["gershgorin", "ellipticity", "continuity", "accretivity", "analyticity_angle", "stability"]
        # certify checks requested criteria against the registry, so the two must agree
        assert ids == list(CERTIFICATES)
        for e in entries:
            assert all(math.isfinite(float(v)) for v in e.constants.values())

    def test_failed_filter_respects_requested(self, tmp_path):
        entries = run_all_certificates(bundle([[2, -1], [-1, 2]]))
        # the sufficient accretivity condition fails here, but it is not requested by default
        assert [e.criterion for e in entries if e.status == "fail"] == ["accretivity"]
        for criteria, code in ((None, 0), (["gershgorin", "ellipticity", "stability"], 0), (["accretivity"], 1)):
            config = {"schema_version": 1, "constants": {"alpha": [[2, -1], [-1, 2]]}}
            if criteria is not None:
                config["criteria"] = criteria
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            assert cli.main(["certify", str(path), "--quiet", "--out", str(tmp_path / "out")]) == code

    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            assert spectral_norm(a) == pytest.approx(np.linalg.svd(a)[1][0], rel=1e-12)
