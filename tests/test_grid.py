"""Grid/field primitives: quadrature, norms, spectral differentiation."""

import math

import numpy as np
import pytest

from nlch import (
    Field,
    Grid,
    fd_gradient,
    gradient,
    h1_seminorm_sq,
    lp_norm,
    mean,
)


def random_field(grid, rng, scale=1.0):
    return Field(grid, scale * rng.uniform(-1.0, 1.0, grid.shape))


class TestGridConstruction:
    def test_cell_volume_formula(self):
        g = Grid(3, 8, 1.7)
        assert g.cell_volume == (1.7 / 8) ** 3
        assert g.volume == 1.7**3

    @pytest.mark.parametrize("dim", [0, 4, -1])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(ValueError, match="dim"):
            Grid(dim, 8, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 6, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(1, n, 1.0)

    def test_rejects_bad_edge_length(self):
        with pytest.raises(ValueError, match="edge_length"):
            Grid(1, 8, -1.0)
        with pytest.raises(ValueError, match="edge_length"):
            Grid(1, 8, 0.0)


class TestField:
    def test_rejects_nan(self):
        g = Grid(1, 8, 1.0)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(g, vals)

    def test_rejects_shape_mismatch(self):
        g = Grid(2, 8, 1.0)
        with pytest.raises(ValueError, match="shape"):
            Field(g, np.zeros(8))

    def test_values_frozen(self):
        g = Grid(1, 8, 1.0)
        f = Field.constant(g, 0.5)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestMean:
    def test_constant(self):
        g = Grid(2, 16, 3.0)
        assert mean(Field.constant(g, 0.37)) == pytest.approx(0.37, abs=1e-16)

    def test_single_mode_is_zero_mean(self):
        g = Grid(1, 8, 2.0)
        x = g.axis_coordinates()
        f = Field(g, np.sin(2 * np.pi * x / g.edge_length))
        assert abs(mean(f)) <= 1e-14

    def test_matches_fsum_oracle(self):
        g = Grid(1, 16, 1.0)
        rng = np.random.default_rng(0)
        f = random_field(g, rng)
        oracle = math.fsum(f.values.tolist()) / g.size
        assert abs(mean(f) - oracle) <= 1e-14

    def test_linearity(self):
        g = Grid(2, 16, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            f, h = random_field(g, rng), random_field(g, rng)
            a, b = rng.uniform(-2, 2, 2)
            combo = Field(g, a * f.values + b * h.values)
            assert abs(mean(combo) - (a * mean(f) + b * mean(h))) <= 1e-13


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 10.0 / 3.0, 7.0, np.inf])
    def test_unit_constant_on_unit_box(self, p):
        g = Grid(1, 16, 1.0)
        assert lp_norm(Field.constant(g, 1.0), p) == pytest.approx(1.0, rel=1e-14)

    def test_sup_norm_spike(self):
        g = Grid(1, 8, 1.0)
        vals = np.zeros(8)
        vals[5] = 0.5
        assert lp_norm(Field(g, vals), np.inf) == 0.5

    def test_matches_fsum_oracle_p_ten_thirds(self):
        g = Grid(1, 32, 2.0)
        rng = np.random.default_rng(2)
        f = random_field(g, rng)
        p = 10.0 / 3.0
        oracle = math.fsum((abs(v) ** p * g.cell_volume for v in f.values.tolist())) ** (1 / p)
        assert lp_norm(f, p) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
    def test_rejects_p_below_one(self, p):
        g = Grid(1, 8, 1.0)
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(Field.constant(g, 1.0), p)

    def test_l2_matches_parseval(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2):
            g = Grid(dim, 16, 1.5)
            f = random_field(g, rng)
            spectrum_sq = float(np.sum(np.abs(np.fft.fftn(f.values)) ** 2))
            parseval = spectrum_sq * g.cell_volume / g.size
            assert lp_norm(f, 2.0) ** 2 == pytest.approx(parseval, rel=1e-12)


class TestGradient:
    def test_constant_gradient_exactly_zero(self):
        g = Grid(2, 16, 2.0)
        for comp in gradient(Field.constant(g, 0.9)):
            assert np.all(comp.values == 0.0)

    def test_single_mode(self):
        g = Grid(1, 32, 2.0)
        x = g.axis_coordinates()
        k = 2 * np.pi / g.edge_length
        f = Field(g, np.sin(k * x))
        (d,) = gradient(f)
        assert np.max(np.abs(d.values - k * np.cos(k * x))) <= 1e-12

    def test_fd_oracle_second_order(self):
        # fixed band-limited profile sampled at increasing resolution: the
        # centered-difference error against the spectral gradient is O(h^2)
        L = 2.0
        rng = np.random.default_rng(4)
        amps = rng.uniform(-1, 1, 4)
        phases = rng.uniform(0, 2 * np.pi, 4)

        def err(n):
            g = Grid(1, n, L)
            x = g.axis_coordinates()
            vals = sum(
                a * np.sin(2 * np.pi * (j + 1) * x / L + ph)
                for j, (a, ph) in enumerate(zip(amps, phases))
            )
            f = Field(g, vals)
            (spec,) = gradient(f)
            (fd,) = fd_gradient(f)
            return float(np.max(np.abs(spec.values - fd.values)))

        e32, e64, e128 = err(32), err(64), err(128)
        assert math.log2(e32 / e64) >= 1.9
        assert math.log2(e64 / e128) >= 1.9


class TestH1Seminorm:
    def test_constant_is_zero(self):
        g = Grid(1, 16, 1.0)
        assert h1_seminorm_sq(Field.constant(g, 2.0)) == 0.0

    def test_single_mode_unit_box(self):
        g = Grid(1, 64, 1.0)
        x = g.axis_coordinates()
        f = Field(g, np.sin(2 * np.pi * x))
        assert h1_seminorm_sq(f) == pytest.approx((2 * np.pi) ** 2 * 0.5, rel=1e-12)

    def test_real_space_matches_spectral(self):
        # Parseval against the real-space gradient route; at n = 4 the
        # Nyquist columns, weighted 1 and with a zeroed derivative, are a
        # large share of the spectrum
        rng = np.random.default_rng(5)
        for dim in (1, 2, 3):
            for n in (4, 16):
                g = Grid(dim, n, 2.0)
                f = random_field(g, rng)
                reference = sum(lp_norm(c, 2.0) ** 2 for c in gradient(f))
                assert h1_seminorm_sq(f) == pytest.approx(reference, rel=1e-12)
