"""Energy forms, separation margin, interpolation-ratio and truncation-ratio
probes."""

import math

import numpy as np
import pytest

from nlch import (
    CSV_COLUMNS,
    Field,
    Grid,
    PotentialParams,
    build_kernel,
    chemical_potential,
    derivative,
    InitialData,
    StepperConfig,
    energy,
    energy_alt,
    gn_constant_estimate,
    gn_ratio,
    lp_norm,
    poincare_ratio,
    poincare_sweep,
    init_state,
    mean,
    separation_margin,
    step,
    value,
)
from nlch.diagnostics import DiagnosticsRow, TimeSeries, make_row

from conftest import gaussian_amplitude


@pytest.fixture
def setup():
    grid = Grid(1, 64, 4.0)
    kernel = build_kernel(
        "gaussian", grid, amplitude=gaussian_amplitude(2.0, 0.4, 1), width=0.4
    )
    p = PotentialParams(1.0, 2.0)
    return grid, kernel, p


def phase_field(grid, rng, scale=0.9):
    return Field(grid, scale * rng.uniform(-1.0, 1.0, grid.shape))


class TestEnergy:
    def test_zero_field(self, setup):
        grid, kernel, p = setup
        assert energy(Field.constant(grid, 0.0), kernel, p) == 0.0

    def test_uniform_closed_form(self, setup):
        grid, kernel, p = setup
        c = 0.4
        expected = grid.volume * (value(p, c) - 0.5 * c**2 * kernel.j_integral)
        got = energy(Field.constant(grid, c), kernel, p)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_double_sum_oracle(self):
        grid = Grid(1, 8, 2.0)
        kernel = build_kernel("gaussian", grid, amplitude=1.3, width=2.0 / 6.0)
        p = PotentialParams(1.0, 2.0)
        rng = np.random.default_rng(10)
        f = phase_field(grid, rng, scale=0.8)
        cv = grid.cell_volume
        quad = 0.0
        for i in range(8):
            for j in range(8):
                quad += kernel.samples[(i - j) % 8] * f.values[i] * f.values[j]
        oracle = -0.5 * quad * cv * cv + math.fsum(
            value(p, v) * cv for v in f.values.tolist()
        )
        assert energy(f, kernel, p) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_out_of_range(self, setup):
        grid, kernel, p = setup
        from nlch import PotentialDomainError

        with pytest.raises(PotentialDomainError):
            energy(Field.constant(grid, 1.5), kernel, p)


class TestEnergyTwoForms:
    def test_agreement_on_random_fields(self, setup):
        grid, kernel, p = setup
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = phase_field(grid, rng)
            e, ea = energy(f, kernel, p), energy_alt(f, kernel, p)
            assert abs(e - ea) <= 1e-11 * abs(e)

    def test_constant_difference_part_vanishes(self, setup):
        grid, kernel, p = setup
        c = 0.6
        expected = grid.volume * (value(p, c) - 0.5 * kernel.j_integral * c**2)
        assert energy_alt(Field.constant(grid, c), kernel, p) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_field(self, setup):
        grid, kernel, p = setup
        assert energy_alt(Field.constant(grid, 0.0), kernel, p) == 0.0


class TestSeparationMargin:
    def test_zero_field(self):
        g = Grid(1, 16, 1.0)
        assert separation_margin(Field.constant(g, 0.0)) == 1.0

    def test_extremes(self):
        g = Grid(1, 16, 1.0)
        vals = np.linspace(-0.6, 0.95, 16)
        assert separation_margin(Field(g, vals)) == pytest.approx(0.05, abs=1e-15)


class TestGNRatio:
    def test_constant_on_unit_box(self):
        g = Grid(1, 32, 1.0)
        assert gn_ratio(Field.constant(g, 0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_field(self):
        g = Grid(1, 32, 1.0)
        with pytest.raises(ValueError, match="zero field"):
            gn_ratio(Field.constant(g, 0.0))

    def test_scale_invariance(self):
        g = Grid(1, 64, 2.0)
        rng = np.random.default_rng(12)
        f = phase_field(g, rng)
        doubled = Field(g, 2.0 * f.values)
        assert gn_ratio(doubled) == pytest.approx(gn_ratio(f), rel=1e-12)

    def test_probe_supremum_bounded(self):
        g = Grid(1, 64, 4.0)
        est = gn_constant_estimate(g, n_probes=50, seed=0)
        assert 0.0 < est < 10.0


class TestPoincareRatio:
    def test_absent_when_truncation_vanishes(self):
        g = Grid(1, 32, 1.0)
        assert poincare_ratio(Field.constant(g, 0.2), 0.5) is None

    def test_sine_profile_against_direct_oracle(self):
        g = Grid(1, 256, 2.0)
        x = g.axis_coordinates()
        f = Field(g, 0.9 * np.sin(2 * np.pi * x / g.edge_length))
        rho = 0.5
        got = poincare_ratio(f, rho)

        # independent loop-based oracle with periodic indexing
        n, h = g.n_per_axis, g.spacing
        trunc = [max(v - rho, 0.0) for v in f.values]
        num = math.sqrt(math.fsum(v * v * h for v in trunc))
        grads = [
            (trunc[(i + 1) % n] - trunc[(i - 1) % n]) / (2 * h) for i in range(n)
        ]
        den = math.sqrt(math.fsum(v * v * h for v in grads))
        assert got == pytest.approx(num / den, rel=0.05)

    def test_constant_nonzero_truncation_raises(self):
        g = Grid(1, 32, 1.0)
        with pytest.raises(RuntimeError, match="flat gradient"):
            poincare_ratio(Field.constant(g, 0.8), 0.5)

    def test_rejects_rho_outside_unit_interval(self):
        g = Grid(1, 32, 1.0)
        with pytest.raises(ValueError, match="rho"):
            poincare_ratio(Field.constant(g, 0.0), 1.5)


class TestTrajectoryProbes:
    def test_ratios_bounded_and_never_error_on_separated_run(self, canonical_run):
        tail = [(t, f) for t, f in canonical_run.snapshots if t >= 4.5 - 1e-9]
        margin = min(separation_margin(f) for _, f in tail)
        assert margin > 0.0
        rhos = np.linspace(0.5, 1.0 - margin, 8)
        sweep = poincare_sweep(tail[:: max(1, len(tail) // 20)], rhos)
        assert sweep.defined_count > 0
        assert np.isfinite(sweep.c_p_est) and sweep.c_p_est > 0.0

    def test_mu_bounded_by_separation_triangle(self, canonical_run):
        # sup|mu| <= sup_{|s| <= 1-margin} |F'(s)| + j_integral once separated
        ts = canonical_run.series.column("t")
        mus = canonical_run.series.column("mu_linf")
        ds = canonical_run.series.column("delta_sep")
        tail = ts >= 0.6
        margin = float(ds[tail].min())
        bound = abs(
            derivative(canonical_run.potential, 1.0 - margin)
        ) + canonical_run.kernel.j_integral
        assert float(mus[tail].max()) <= bound + 1e-12


class TestRowsAndSeries:
    def test_csv_column_order_frozen(self):
        assert CSV_COLUMNS == (
            "t", "mass", "energy", "energy_alt", "dissipation_accum",
            "energy_residual", "min_phi", "max_phi", "delta_sep", "mu_linf",
            "inner_iters", "dt_used",
        )

    def test_make_row_fields(self, setup, canonical_run):
        row = canonical_run.series.rows[-1]
        assert row.delta_sep == pytest.approx(
            1.0 - max(abs(row.min_phi), abs(row.max_phi))
        )
        assert row.energy == pytest.approx(row.energy_alt, rel=1e-11)

    def test_make_row_energies_match_a_fresh_evaluation(self, setup):
        # the row reads the J*phi the state carries; it must be that of the
        # state's own phi, not of an earlier one
        grid, kernel, p = setup
        st = init_state(
            grid, kernel, p,
            InitialData(mode="constant", noise_amplitude=0.05, seed=1),
        )
        cfg = StepperConfig(dt=3e-3, inner_tol=1e-12)
        for _ in range(3):
            st = step(st, cfg, kernel, p)
        row = make_row(st, kernel, p, 0.0, 0.0)
        assert row.energy == energy(st.phi, kernel, p)
        assert row.energy_alt == energy_alt(st.phi, kernel, p)

    @pytest.mark.parametrize("c", [0.5, 0.0])
    def test_mu_linf_column_on_a_uniform_state(self, setup, c):
        grid, kernel, p = setup
        st = init_state(grid, kernel, p, InitialData(mode="constant", m=c))
        expected = abs(derivative(p, c) - c * kernel.j_integral)
        assert make_row(st, kernel, p, 0.0, 0.0).mu_linf == pytest.approx(expected, rel=1e-12)

    def test_series_column_roundtrip(self):
        series = TimeSeries()
        assert len(series) == 0
        with pytest.raises(KeyError):
            series.column("nope")


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def composed_row_fields(state, kernel, p, energy_base, dissipation_base):
    """A row's twelve fields from the public functions, with the energy sums
    and the mass written as np.sum / np.mean, the way rows were assembled
    before make_row moved onto arrays."""
    phi = state.phi
    mu, j_phi = chemical_potential(phi, kernel, p)
    cv = phi.grid.cell_volume
    a = kernel.j_integral
    f_vals = value(p, phi.values)
    cross = float(np.sum(phi.values * j_phi.values)) * cv
    sq = float(np.sum(phi.values**2)) * cv
    e = -0.5 * cross + float(np.sum(f_vals)) * cv
    ea = 0.5 * a * sq - 0.5 * cross + float(np.sum(f_vals - 0.5 * a * phi.values**2)) * cv
    mn = float(np.min(phi.values))
    mx = float(np.max(phi.values))
    dissip = state.dissipation_accum
    return dict(
        t=state.t,
        mass=float(np.mean(phi.values)),
        energy=e,
        energy_alt=ea,
        dissipation_accum=dissip,
        energy_residual=e + (dissip - dissipation_base) - energy_base,
        min_phi=mn,
        max_phi=mx,
        delta_sep=1.0 - max(abs(mn), abs(mx)),
        mu_linf=lp_norm(mu, np.inf),
        inner_iters=state.last_inner_iters,
        dt_used=state.last_dt,
    )


class TestMakeRowBitwise:
    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (3, 16)])
    def test_fields_match_the_public_composition(self, dim, n):
        grid = Grid(dim, n, 4.0)
        kernel = build_kernel(
            "gaussian", grid, amplitude=gaussian_amplitude(2.0, 0.3, dim), width=0.3
        )
        p = PotentialParams(1.0, 2.0)
        st = init_state(
            grid, kernel, p, InitialData(mode="constant", m=0.1, noise_amplitude=0.3, seed=4)
        )
        cfg = StepperConfig(dt=3e-3, inner_tol=1e-12)
        for _ in range(4):
            st = step(st, cfg, kernel, p)
        assert st.dissipation_accum > 0.0 and st.last_inner_iters > 0
        row = make_row(st, kernel, p, -0.3, 1e-3)
        expected = composed_row_fields(st, kernel, p, -0.3, 1e-3)
        assert expected["mass"] == mean(st.phi)
        for name in CSV_COLUMNS:
            got = getattr(row, name)
            assert type(got) is type(expected[name]), name
            assert bits(got) == bits(expected[name]), name


def per_field_join(row) -> str:
    """The CSV line as one format call per field."""
    parts = []
    for name in CSV_COLUMNS:
        v = getattr(row, name)
        parts.append(str(v) if isinstance(v, int) else format(v, ".17g"))
    return ",".join(parts)


class TestRowCsv:
    @pytest.mark.parametrize(
        "v", [-0.0, 0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1, -1.0 / 3.0]
    )
    @pytest.mark.parametrize("iters", [0, 2**40])
    def test_matches_the_per_field_join(self, v, iters):
        floats = {name: v for name in CSV_COLUMNS if name != "inner_iters"}
        row = DiagnosticsRow(inner_iters=iters, **floats)
        assert row.to_csv() == per_field_join(row)

    def test_column_order_with_distinct_values(self):
        values = {name: (i + 1) / 7.0 for i, name in enumerate(CSV_COLUMNS)}
        values["inner_iters"] = 11
        row = DiagnosticsRow(**values)
        assert row.to_csv() == per_field_join(row)
        assert row.to_csv().split(",")[CSV_COLUMNS.index("inner_iters")] == "11"
