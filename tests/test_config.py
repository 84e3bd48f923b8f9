"""Configuration parsing, constants and derived beam quantities."""

import math

import pytest
from hypothesis import given, strategies as st

from doubleslit.config import (
    ELECTRON_MASS,
    EV_TO_J,
    HBAR,
    BeamSpec,
    ConfigError,
    DetectorSpec,
    SimConfig,
    SlitGeometry,
    TruncationSpec,
    de_broglie_wavelength,
    parse_config,
    serialize_config,
    wavenumber,
    with_detector,
)

DEFAULT_ENERGY_J = 0.001 * EV_TO_J


def default_beam(**kwargs):
    base = dict(mass=ELECTRON_MASS, energy=DEFAULT_ENERGY_J)
    base.update(kwargs)
    return BeamSpec(**base)


class TestParsing:
    def test_empty_file_gives_pure_defaults(self):
        cfg = parse_config("")
        assert cfg.beam.mass == ELECTRON_MASS
        assert cfg.beam.energy == DEFAULT_ENERGY_J
        assert cfg.beam.amplitude == 1e8
        assert cfg.beam.alpha == 0.01
        assert cfg.detector.distance_R == 1.0
        assert cfg.detector.steps == 2001
        assert cfg.truncation.m_max == 256 and cfg.truncation.n_max == 256
        lam = de_broglie_wavelength(cfg.beam)
        assert cfg.slits.width_a == pytest.approx(5 * lam, rel=1e-15)
        assert cfg.slits.length_b == pytest.approx(1000 * lam, rel=1e-15)
        assert cfg.slits.thickness_c == pytest.approx(lam, rel=1e-15)
        assert cfg.slits.separation_d == pytest.approx(25 * lam, rel=1e-15)

    def test_minimal_file_lambda_units(self):
        cfg = parse_config("a = 5 lambda\nd = 25 lambda\n")
        lam = de_broglie_wavelength(cfg.beam)
        assert cfg.slits.width_a == pytest.approx(5 * lam, rel=1e-15)
        assert cfg.slits.separation_d == pytest.approx(25 * lam, rel=1e-15)

    def test_metre_units_taken_verbatim(self):
        cfg = parse_config("a = 1e-7 m\nb = 4e-5 m\nc = 0 m\nd = 2e-7 m\n")
        assert cfg.slits.width_a == 1e-7
        assert cfg.slits.thickness_c == 0.0

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nenergy_ev = 0.004  # inline\n")
        assert cfg.beam.energy == pytest.approx(0.004 * EV_TO_J, rel=1e-15)

    def test_negative_width_names_offending_field(self):
        with pytest.raises(ConfigError, match="width_a"):
            parse_config("a = -1 m\n")

    def test_unknown_key_rejected(self):
        # time_s (a global phase e^(-iEt/hbar) that no output depends on) is
        # no longer a key, so older configs holding it are rejected.
        for key in ("bogus", "time_s"):
            with pytest.raises(ConfigError, match=key):
                parse_config(f"{key} = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("energy_ev = 1\nenergy_ev = 2\n")

    def test_malformed_number_names_key(self):
        with pytest.raises(ConfigError, match="energy_ev"):
            parse_config("energy_ev = banana\n")

    def test_length_without_unit_token_rejected(self):
        with pytest.raises(ConfigError, match="'a'"):
            parse_config("a = 5\n")

    def test_non_assignment_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_grid_direction_validity_enforced(self):
        # sin^2(alpha) + sin^2(beta) must stay below 1 on the whole grid.
        with pytest.raises(ConfigError, match="invalid direction"):
            parse_config("beta_max_rad = 1.57\n")

    def test_detector_invariants(self):
        with pytest.raises(ConfigError, match="beta_min_rad"):
            parse_config("beta_min_rad = 0.2\nbeta_max_rad = 0.1\n")
        with pytest.raises(ConfigError, match="beta_steps"):
            parse_config("beta_steps = 1\n")

    def test_overflowing_amplitude_rejected(self):
        # 16A/pi^2 overflows once 16A passes the largest double (~1.8e308).
        assert parse_config("amplitude = 1e307\n").beam.amplitude == 1e307
        for value in ("2e307", "1e308"):
            with pytest.raises(ConfigError, match="amplitude too large"):
                parse_config(f"amplitude = {value}\n")
        # The parser already refuses "inf"; the beam itself refuses it too.
        with pytest.raises(ConfigError, match="amplitude too large"):
            default_beam(amplitude=math.inf)

    def test_truncation_invariants(self):
        with pytest.raises(ConfigError, match="evanescent_drop_tol"):
            parse_config("evanescent_drop_tol = 1.5\n")


class TestBeamQuantities:
    def test_wavelength_paper_value(self):
        lam = de_broglie_wavelength(default_beam())
        assert lam == pytest.approx(3.88e-8, rel=0.005)

    def test_quadrupling_energy_halves_wavelength(self):
        lam1 = de_broglie_wavelength(default_beam())
        lam2 = de_broglie_wavelength(default_beam(energy=4 * DEFAULT_ENERGY_J))
        assert lam2 == pytest.approx(lam1 / 2, rel=1e-14)

    def test_quadrupling_mass_halves_wavelength(self):
        lam1 = de_broglie_wavelength(default_beam())
        lam2 = de_broglie_wavelength(default_beam(mass=4 * ELECTRON_MASS))
        assert lam2 == pytest.approx(lam1 / 2, rel=1e-14)

    def test_wavenumber_paper_value(self):
        assert wavenumber(default_beam()) == pytest.approx(2 * math.pi / 3.88e-8, rel=0.005)

    def test_doubling_hbar_halves_wavenumber(self):
        beam = default_beam()
        assert wavenumber(beam, hbar=2 * HBAR) == pytest.approx(
            wavenumber(beam) / 2, rel=1e-14
        )

    @given(
        energy_ev=st.floats(1e-6, 1e3),
        mass_scale=st.floats(0.1, 1e5),
    )
    def test_k_times_lambda_is_two_pi(self, energy_ev, mass_scale):
        beam = default_beam(mass=ELECTRON_MASS * mass_scale, energy=energy_ev * EV_TO_J)
        product = wavenumber(beam) * de_broglie_wavelength(beam)
        assert product == pytest.approx(2 * math.pi, rel=1e-12)


class TestRoundTrip:
    def test_serialize_parse_identity_defaults(self):
        cfg = parse_config("")
        assert parse_config(serialize_config(cfg)) == cfg

    @given(
        energy_ev=st.floats(1e-6, 1e3),
        a_lam=st.floats(0.5, 100),
        d_lam=st.floats(0.0, 2000),
        steps=st.integers(2, 500),
        tol=st.floats(1e-12, 0.5),
    )
    def test_serialize_parse_identity(self, energy_ev, a_lam, d_lam, steps, tol):
        cfg = parse_config(
            f"energy_ev = {energy_ev!r}\n"
            f"a = {a_lam!r} lambda\n"
            f"d = {d_lam!r} lambda\n"
            f"beta_steps = {steps}\n"
            f"evanescent_drop_tol = {tol!r}\n"
        )
        assert parse_config(serialize_config(cfg)) == cfg


class TestTypeInvariants:
    def test_beam_invariants(self):
        with pytest.raises(ConfigError):
            default_beam(mass=-1.0)
        with pytest.raises(ConfigError):
            default_beam(energy=0.0)
        with pytest.raises(ConfigError):
            default_beam(alpha=2.0)

    def test_geometry_invariants(self):
        with pytest.raises(ConfigError):
            SlitGeometry(width_a=0.0, length_b=1.0, thickness_c=0.0, separation_d=0.0)
        # zero thickness and zero separation are legal
        SlitGeometry(width_a=1.0, length_b=1.0, thickness_c=0.0, separation_d=0.0)

    def test_detector_grid_shape(self):
        det = DetectorSpec(beta_min=-0.1, beta_max=0.1, steps=5)
        grid = det.grid()
        assert grid.shape == (5,)
        assert grid[0] == -0.1 and grid[-1] == 0.1

    def test_sim_config_direction_check(self):
        with pytest.raises(ConfigError):
            SimConfig(
                beam=default_beam(),
                slits=SlitGeometry(1e-7, 4e-5, 0.0, 2e-7),
                detector=DetectorSpec(beta_min=-1.57, beta_max=1.57, steps=3),
                truncation=TruncationSpec(),
            )

    def test_grid_past_the_horizon_rejected(self):
        # sin^2(3) is small, yet beta = +-3 lies past |beta| = pi/2.
        with pytest.raises(ConfigError, match="invalid direction"):
            parse_config("beta_min_rad = -3\nbeta_max_rad = 3\nbeta_steps = 3\n")
        # The endpoint of larger magnitude decides, whichever side it is on.
        with pytest.raises(ConfigError, match="invalid direction"):
            parse_config("beta_min_rad = -1.57\nbeta_max_rad = 0.1\n")

    def test_validation_never_builds_the_grid(self, monkeypatch):
        def no_grid(self):
            raise AssertionError("detector grid built during validation")

        monkeypatch.setattr(DetectorSpec, "grid", no_grid)
        cfg = parse_config("beta_min_rad = -0.45\nbeta_max_rad = 0.45\nbeta_steps = 20001\n")
        assert cfg.detector.steps == 20001
        with pytest.raises(ConfigError, match="invalid direction"):
            parse_config("beta_max_rad = 1.57\n")

    def test_with_detector_helper(self, default_config):
        cfg = with_detector(default_config, steps=11)
        assert cfg.detector.steps == 11
        assert cfg.slits == default_config.slits
