"""Kernel discretization and spectral convolution against brute-force sums."""

import numpy as np
import pytest

from nlch import Field, Grid, build_kernel, convolve, gradient, lp_norm, mean
from nlch.grid import irfft
from nlch.kernels import convolve_values


def direct_convolve(kernel, f):
    """O(N^2) periodic sum: sum_y J(x-y) f(y) cell_volume."""
    g = f.grid
    n = g.n_per_axis
    out = np.zeros(g.shape)
    for i in np.ndindex(g.shape):
        acc = 0.0
        for j in np.ndindex(g.shape):
            d = tuple((i[a] - j[a]) % n for a in range(g.dim))
            acc += kernel.samples[d] * f.values[j]
        out[i] = acc * g.cell_volume
    return out


class TestBuildKernel:
    @pytest.mark.parametrize("dim,n", [(1, 64), (3, 16)])
    def test_gaussian_integral_matches_analytic(self, dim, n):
        g = Grid(dim, n, 4.0)
        sigma, amp = 0.5, 1.3
        k = build_kernel("gaussian", g, amplitude=amp, width=sigma)
        analytic = amp * (2 * np.pi * sigma**2) ** (dim / 2)
        assert k.j_integral == pytest.approx(analytic, rel=1e-3)

    @pytest.mark.parametrize("family,extra", [
        ("gaussian", {"width": 0.4}),
        ("exponential", {"width": 0.4}),
    ])
    def test_dc_mode_equals_sample_sum(self, family, extra):
        g = Grid(1, 32, 4.0)
        k = build_kernel(family, g, amplitude=0.9, **extra)
        dc = k.symbol[(0,) * g.dim] / g.cell_volume
        assert dc == pytest.approx(k.j_integral / g.cell_volume, rel=1e-12)

    @pytest.mark.parametrize("family,extra,dim", [
        ("gaussian", {"width": 0.5}, 2),
        ("exponential", {"width": 0.5}, 2),
        ("mollified_newtonian", {"molli_radius": 0.6}, 3),
    ])
    def test_even_symmetry_exact(self, family, extra, dim):
        g = Grid(dim, 16, 4.0)
        k = build_kernel(family, g, amplitude=1.0, **extra)
        flipped = k.samples
        for axis in range(dim):
            flipped = np.flip(np.roll(flipped, -1, axis=axis), axis=axis)
        assert np.all(k.samples == flipped)

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (3, 16)])
    def test_symbol_is_the_scaled_transform_read_only(self, dim, n):
        g = Grid(dim, n, 4.0)
        k = build_kernel("gaussian", g, amplitude=1.0, width=0.5)
        assert np.array_equal(k.symbol, g.cell_volume * np.fft.rfftn(k.samples).real)
        assert not k.symbol.flags.writeable

    def test_summaries_positive(self):
        g = Grid(3, 16, 4.0)
        k = build_kernel("mollified_newtonian", g, amplitude=1.0, molli_radius=0.6)
        assert k.j_integral > 0.0 and np.isfinite(k.j_integral)
        assert k.grad_j_l1 > 0.0 and np.isfinite(k.grad_j_l1)

    def test_rejects_bad_parameters(self):
        g = Grid(1, 32, 4.0)
        with pytest.raises(ValueError, match="amplitude"):
            build_kernel("gaussian", g, amplitude=-1.0, width=0.3)
        with pytest.raises(ValueError, match="width"):
            build_kernel("gaussian", g, amplitude=1.0, width=0.0)
        with pytest.raises(ValueError, match="width"):
            build_kernel("gaussian", g)
        with pytest.raises(ValueError, match="edge_length/6"):
            build_kernel("gaussian", g, amplitude=1.0, width=1.0)
        with pytest.raises(ValueError, match="unknown kernel family"):
            build_kernel("tophat", g, amplitude=1.0, width=0.3)

    def test_rejects_underresolved_mollification(self):
        g = Grid(3, 16, 4.0)  # spacing 0.25
        with pytest.raises(ValueError, match="under-resolved"):
            build_kernel("mollified_newtonian", g, amplitude=1.0, molli_radius=0.3)

    def test_rejects_an_argument_the_family_does_not_read(self):
        g = Grid(1, 32, 4.0)
        for family in ("gaussian", "exponential"):
            with pytest.raises(ValueError, match="takes no molli_radius"):
                build_kernel(family, g, width=0.4, molli_radius=0.3)
        with pytest.raises(ValueError, match="takes no width"):
            build_kernel("mollified_newtonian", Grid(3, 16, 4.0), width=0.4, molli_radius=0.6)

    def test_compares_by_build_arguments(self):
        g = Grid(1, 32, 4.0)
        a = build_kernel("gaussian", g, amplitude=1.1, width=0.4)
        b = build_kernel("gaussian", Grid(1, 32, 4.0), amplitude=1.1, width=0.4)
        assert a == b and hash(a) == hash(b)
        assert a != build_kernel("gaussian", g, amplitude=1.1, width=0.5)
        assert a != build_kernel("exponential", g, amplitude=1.1, width=0.4)

    def test_newtonian_requires_dim3(self):
        g = Grid(1, 32, 4.0)
        with pytest.raises(ValueError, match="dim = 3"):
            build_kernel("mollified_newtonian", g, amplitude=1.0, molli_radius=0.5)


class TestConvolve:
    def test_constant_maps_to_j_integral(self):
        g = Grid(2, 32, 4.0)
        k = build_kernel("gaussian", g, amplitude=1.1, width=0.4)
        out = convolve(k, Field.constant(g, 0.7))
        assert np.max(np.abs(out.values - 0.7 * k.j_integral)) <= 1e-12

    def test_single_mode_scaled_by_multiplier(self):
        g = Grid(1, 32, 4.0)
        k = build_kernel("gaussian", g, amplitude=1.0, width=0.4)
        x = g.axis_coordinates()
        f = Field(g, np.cos(2 * np.pi * x / g.edge_length))
        out = convolve(k, f)
        # convolution theorem: the mode is scaled by the symbol at its k
        symbol = k.symbol[1]
        assert np.max(np.abs(out.values - symbol * f.values)) <= 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 8), (3, 4)])
    def test_matches_direct_sum(self, dim, n):
        g = Grid(dim, n, 2.0)
        k = build_kernel("gaussian", g, amplitude=1.3, width=2.0 / 6.0)
        rng = np.random.default_rng(3)
        f = Field(g, rng.uniform(-1, 1, g.shape))
        assert np.max(np.abs(convolve(k, f).values - direct_convolve(k, f))) <= 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32), (3, 16)])
    def test_values_bit_equal_to_scaling_after_the_inverse(self, dim, n):
        # on an edge-4 box cell_volume is a power of two, so scaling the
        # symbol instead of the inverse transform changes no bit
        g = Grid(dim, n, 4.0)
        k = build_kernel("exponential", g, amplitude=1.3, width=0.5)
        v = np.random.default_rng(5).uniform(-1, 1, g.shape)
        scaled_after = irfft(g, np.fft.rfftn(k.samples).real * np.fft.rfftn(v)) * g.cell_volume
        assert np.array_equal(convolve_values(k, v), scaled_after)

    def test_grid_mismatch_rejected(self):
        k = build_kernel("gaussian", Grid(1, 32, 4.0), amplitude=1.0, width=0.4)
        with pytest.raises(ValueError, match="does not match"):
            convolve(k, Field.constant(Grid(1, 64, 4.0), 0.1))

    def test_linearity(self):
        g = Grid(1, 64, 4.0)
        k = build_kernel("exponential", g, amplitude=0.8, width=0.4)
        rng = np.random.default_rng(4)
        f = Field(g, rng.uniform(-1, 1, g.shape))
        h = Field(g, rng.uniform(-1, 1, g.shape))
        a, b = 1.7, -0.6
        lhs = convolve(k, Field(g, a * f.values + b * h.values)).values
        rhs = a * convolve(k, f).values + b * convolve(k, h).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dc_preservation(self):
        g = Grid(1, 64, 4.0)
        k = build_kernel("gaussian", g, amplitude=1.2, width=0.4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = Field(g, rng.uniform(-1, 1, g.shape))
            assert mean(convolve(k, f)) == pytest.approx(
                k.j_integral * mean(f), rel=1e-12, abs=1e-15
            )

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_young_inequality_on_gradient(self, dim, n):
        g = Grid(dim, n, 4.0)
        k = build_kernel("gaussian", g, amplitude=1.0, width=0.5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = Field(g, rng.uniform(-1, 1, g.shape))
            grad_inf = max(lp_norm(c, np.inf) for c in gradient(convolve(k, f)))
            assert grad_inf <= k.grad_j_l1 * lp_norm(f, np.inf) * (1 + 1e-6)
