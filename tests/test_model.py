"""Tests for synthetic data generation, sparse signals, and sample splitting."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalnorm import (
    Dimensions,
    ModelSpec,
    RegressionSample,
    read_sample,
    sample_sparse_theta,
    synthesize,
    write_sample,
)
from signalnorm.model import DESIGN_LAWS, NOISE_LAWS, split_sample

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# Floats whose text form is easy to get wrong: signed zero, the smallest and
# largest subnormals, the smallest normal and the largest finite magnitude.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308]


class TestSampleDesign:
    """The design `synthesize` draws from the spec's law."""

    def test_deterministic_given_seed(self):
        dims = Dimensions(N=2, p=3, s=1)
        spec = ModelSpec(theta=np.zeros(3), sigma=1.0)
        a = synthesize(spec, dims, seed=7).X
        b = synthesize(spec, dims, seed=7).X
        assert a.shape == (2, 3)
        np.testing.assert_array_equal(a, b)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            ModelSpec(theta=np.zeros(3), sigma=1.0, design="cauchy")

    @pytest.mark.parametrize("law", sorted(DESIGN_LAWS))
    def test_design_laws_standardized(self, law):
        """Every supported law has mean 0 and variance 1 (Monte Carlo moments)."""
        rng = np.random.default_rng(123)
        draws = DESIGN_LAWS[law](rng, 10**6)
        assert abs(draws.mean()) <= 0.005
        assert abs(draws.var() - 1.0) <= 0.01

    @pytest.mark.parametrize("law", sorted(NOISE_LAWS))
    def test_noise_laws_standardized(self, law):
        rng = np.random.default_rng(321)
        draws = NOISE_LAWS[law](rng, 10**6)
        assert abs(draws.mean()) <= 0.005
        assert abs(draws.var() - 1.0) <= 0.01


class TestSynthesize:
    def test_zero_signal_reproduces_noise(self):
        """theta = 0, sigma = 1: Y equals the seeded noise stream exactly."""
        dims = Dimensions(N=5, p=3, s=1)
        spec = ModelSpec(theta=np.zeros(3), sigma=1.0)
        sample = synthesize(spec, dims, seed=99)
        _, ss_noise = np.random.SeedSequence(99).spawn(2)
        xi = NOISE_LAWS["standard-normal"](np.random.default_rng(ss_noise), 5)
        np.testing.assert_array_equal(sample.Y, xi)

    def test_vanishing_noise_scaling(self):
        dims = Dimensions(N=50, p=4, s=1)
        theta = np.array([1.0, 0, 0, 0])
        sample = synthesize(ModelSpec(theta=theta, sigma=1e-12), dims, seed=5)
        assert np.linalg.norm(sample.Y - sample.X @ theta) <= 1e-10 * np.sqrt(50)

    def test_reconstruction_from_stored_seed(self):
        """Y reproduces X @ theta + sigma * xi recomputed from the seed stream."""
        dims = Dimensions(N=3, p=2, s=1)
        spec = ModelSpec(theta=np.array([1.0, 0.0]), sigma=2.0)
        sample = synthesize(spec, dims, seed=1234)
        ss_design, ss_noise = np.random.SeedSequence(1234).spawn(2)
        X = DESIGN_LAWS["standard-normal"](np.random.default_rng(ss_design), (3, 2))
        xi = NOISE_LAWS["standard-normal"](np.random.default_rng(ss_noise), 3)
        np.testing.assert_array_equal(sample.X, X)
        np.testing.assert_array_equal(sample.Y, X @ spec.theta + 2.0 * xi)

    def test_pure_function_of_seed(self):
        dims = Dimensions(N=4, p=3, s=2)
        spec = ModelSpec(theta=np.array([1.0, -1.0, 0.0]), sigma=0.5,
                         design="uniform-scaled", noise="scaled-rademacher-mixture")
        a = synthesize(spec, dims, seed=17)
        b = synthesize(spec, dims, seed=17)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            synthesize(ModelSpec(theta=np.zeros(3), sigma=1.0), Dimensions(N=4, p=2, s=1), 0)
        with pytest.raises(ValueError, match="row mismatch"):
            RegressionSample(X=np.ones((4, 2)), Y=np.ones(3))
        with pytest.raises(ValueError, match="X must be a 2-d matrix"):
            RegressionSample(X=np.ones(4), Y=np.ones(4))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(theta=np.zeros(3), sigma=0.0)
        with pytest.raises(ValueError):
            ModelSpec(theta=np.zeros(3), sigma=1.0, noise="levy")
        with pytest.raises(ValueError, match="theta must be a 1-d vector"):
            ModelSpec(theta=np.zeros((3, 1)), sigma=1.0)

    def test_spec_frozen(self):
        """A checked spec cannot be given an unchecked law afterwards."""
        spec = ModelSpec(theta=[0.0, 1.0], sigma=1.0)
        assert isinstance(spec.theta, np.ndarray)
        for name, value in (("design", "cauchy"), ("noise", "levy"), ("sigma", -1.0),
                            ("theta", np.zeros(5))):
            with pytest.raises(FrozenInstanceError):
                setattr(spec, name, value)
        assert spec.design == "standard-normal" and spec.sigma == 1.0


class TestSparseTheta:
    """s values magnitude/sqrt(s) on a uniform size-s support; with the "equal"
    pattern and magnitude tau, also the least-favorable prior of the lower bounds."""

    def test_full_support_equal_pattern(self):
        theta = sample_sparse_theta(4, 4, 2.0, rng=np.random.default_rng(0))
        np.testing.assert_allclose(theta, np.ones(4))
        assert np.isclose(np.linalg.norm(theta), 2.0)

    def test_zero_magnitude(self):
        theta = sample_sparse_theta(5, 2, 0.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(theta, np.zeros(5))

    def test_support_marginal_frequency(self):
        """Coordinate membership frequency matches s/p (uniform size-s support)."""
        rng = np.random.default_rng(42)
        hits = 0
        trials = 10**5
        for _ in range(trials):
            theta = sample_sparse_theta(5, 2, 1.0, rng=rng)
            hits += theta[0] != 0
        assert abs(hits / trials - 0.4) <= 0.01

    def test_sparsity_and_norm_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = int(rng.integers(2, 30))
            s = int(rng.integers(1, p + 1))
            mag = float(rng.uniform(0.1, 10))
            pattern = "random-signs" if rng.integers(2) else "equal"
            theta = sample_sparse_theta(p, s, mag, pattern=pattern, rng=rng)
            assert np.count_nonzero(theta) == s
            assert abs(np.linalg.norm(theta) - mag) <= 1e-12 * mag

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            sample_sparse_theta(3, 4, 1.0, rng=np.random.default_rng(0))
        for magnitude in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="magnitude must be finite and >= 0"):
                sample_sparse_theta(3, 1, magnitude, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown pattern 'bogus'"):
            sample_sparse_theta(3, 1, 1.0, "bogus", rng=np.random.default_rng(0))


class TestSplitSample:
    def _sample(self, N, p=2):
        rng = np.random.default_rng(N)
        return RegressionSample(X=rng.standard_normal((N, p)), Y=rng.standard_normal(N))

    def test_even_three_way(self):
        blocks = split_sample(self._sample(6), 3)
        assert len(blocks) == 3
        assert all(X.shape[0] == 2 and Y.shape[0] == 2 for X, Y in blocks)

    def test_floor_rule_drops_remainder(self):
        blocks = split_sample(self._sample(7), 2)
        assert [X.shape[0] for X, _ in blocks] == [3, 3]
        assert 7 - len(blocks) * blocks[0][0].shape[0] == 1  # rows dropped

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_sample(self._sample(2), 3)
        with pytest.raises(ValueError, match="parts must be 2 or 3"):
            split_sample(self._sample(8), 4)

    def test_blocks_disjoint_and_cover_prefix(self):
        rng = np.random.default_rng(3)
        for N in rng.integers(3, 40, size=25):
            parts = int(rng.integers(2, 4))
            if N < parts:
                continue
            sample = self._sample(int(N))
            blocks = split_sample(sample, parts)
            n = blocks[0][0].shape[0]
            stacked = np.vstack([X for X, _ in blocks])
            np.testing.assert_array_equal(stacked, sample.X[: parts * n])
            np.testing.assert_array_equal(np.concatenate([Y for _, Y in blocks]), sample.Y[: parts * n])
            assert 0 <= sample.N - parts * n < parts  # rows dropped


class TestCsvRoundTrip:
    def test_write_read_exact(self, tmp_path):
        dims = Dimensions(N=6, p=3, s=2)
        theta = sample_sparse_theta(3, 2, 1.5, rng=np.random.default_rng(9))
        sample = synthesize(ModelSpec(theta=theta, sigma=0.7), dims, seed=11)
        path = write_sample(sample, tmp_path / "sample.csv")
        back = read_sample(path)
        np.testing.assert_array_equal(back.X, sample.X)
        np.testing.assert_array_equal(back.Y, sample.Y)
        assert back.X.flags.c_contiguous  # row-major, as a synthesized sample

    def test_no_sidecar_without_truth(self, tmp_path):
        """A sample holds no truth, a synthesized one included, so write_sample
        writes the CSV alone; `gen` writes the truth sidecar."""
        sample = synthesize(ModelSpec(theta=np.ones(2), sigma=1.0), Dimensions(N=3, p=2, s=2), 0)
        write_sample(sample, tmp_path / "s.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    @PROPERTY
    @given(data=st.data(), N=st.integers(1, 6), p=st.integers(1, 8))
    def test_round_trip_bit_exact(self, tmp_path_factory, data, N, p):
        """Every finite float comes back with the same bits: subnormals, -0.0
        and the largest magnitudes included."""
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(EDGE_FLOATS))
        X = np.array(data.draw(st.lists(values, min_size=N * p, max_size=N * p))).reshape(N, p)
        Y = np.array(data.draw(st.lists(values, min_size=N, max_size=N)))
        path = write_sample(RegressionSample(X=X, Y=Y), tmp_path_factory.mktemp("csv") / "s.csv")
        back = read_sample(path)
        assert back.X.shape == (N, p) and back.Y.shape == (N,)
        assert back.X.tobytes() == X.tobytes() and back.Y.tobytes() == Y.tobytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_sample(path)

    @pytest.mark.parametrize("text,match", [
        ("", "header"),
        ("y,x1\r\n", "no data rows"),
        ("y,x1\n1,2\n3\n", "columns"),
        ("y,x1\n1,abc\n", "abc"),
        ("y,x1\n1,2,3\n4,5,6\n", "header names 2"),
        ("y,x1,x2\n1,2\n", "header names 3"),
    ], ids=["empty", "header-only", "ragged", "not-a-number", "wider-than-header",
            "narrower-than-header"])
    def test_malformed_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            read_sample(path)


class TestDimensions:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dimensions(N=0, p=2, s=1)
        with pytest.raises(ValueError):
            Dimensions(N=4, p=1, s=1)
        with pytest.raises(ValueError):
            Dimensions(N=4, p=3, s=4)


class TestRegressionSample:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.ones((4, 2))
        Y = np.ones(4)
        X_bad = X.copy()
        X_bad[1, 0] = bad
        Y_bad = Y.copy()
        Y_bad[2] = bad
        with pytest.raises(ValueError, match="finite"):
            RegressionSample(X=X_bad, Y=Y)
        with pytest.raises(ValueError, match="finite"):
            RegressionSample(X=X, Y=Y_bad)
