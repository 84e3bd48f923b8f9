"""Experiment configuration, physical constants and derived beam quantities.

All internal quantities are SI (m, kg, J, s, rad).  Electron-volts and
wavelength multiples are accepted only at the config-file boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# Planck's reduced constant, J s (value used throughout the numerics).
HBAR = 1.055e-34
# Conversion factor eV -> J.
EV_TO_J = 1.602176634e-19
# Electron rest mass, kg.
ELECTRON_MASS = 9.11e-31


class ConfigError(ValueError):
    """Invalid configuration input or violated invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class BeamSpec:
    """Incoming plane-wave electron beam.

    energy is stored in joules; amplitude is the dimensionless plane-wave
    scale; alpha is the fixed out-of-plane observation angle in radians.
    """

    mass: float
    energy: float
    amplitude: float = 1e8
    alpha: float = 0.01

    def __post_init__(self) -> None:
        _require(self.mass > 0, "mass_kg must be > 0")
        _require(self.energy > 0, "energy_ev must be > 0")
        _require(self.amplitude > 0, "amplitude must be > 0")
        # The largest mode coefficient, 16A/pi^2, must be finite: inf
        # coefficients give inf or NaN weights and amplitudes.
        _require(
            math.isfinite(16.0 * self.amplitude / math.pi**2),
            "amplitude too large: the mode coefficient 16*A/pi^2 overflows",
        )
        _require(abs(self.alpha) < math.pi / 2, "alpha_rad must satisfy |alpha| < pi/2")


@dataclass(frozen=True)
class SlitGeometry:
    """Rectangular double-slit geometry, all lengths in metres."""

    width_a: float
    length_b: float
    thickness_c: float
    separation_d: float

    def __post_init__(self) -> None:
        _require(self.width_a > 0, "width_a must be > 0 (key a)")
        _require(self.length_b > 0, "length_b must be > 0 (key b)")
        _require(self.thickness_c >= 0, "thickness_c must be >= 0 (key c)")
        _require(self.separation_d >= 0, "separation_d must be >= 0 (key d)")


@dataclass(frozen=True)
class DetectorSpec:
    """Far-field detector: distance and the scanned beta angle grid."""

    distance_R: float = 1.0
    beta_min: float = -0.3
    beta_max: float = 0.3
    steps: int = 2001

    def __post_init__(self) -> None:
        _require(self.distance_R > 0, "R_m must be > 0")
        _require(self.beta_min < self.beta_max, "beta_min_rad must be < beta_max_rad")
        _require(self.steps >= 2, "beta_steps must be >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(self.beta_min, self.beta_max, self.steps)


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation of the infinite mode sums.

    Modes beyond (m_max, n_max) are never enumerated; within the caps a
    mode is kept when its post-thickness weight is at least
    evanescent_drop_tol times the fundamental's.
    """

    m_max: int = 256
    n_max: int = 256
    evanescent_drop_tol: float = 1e-6

    def __post_init__(self) -> None:
        _require(self.m_max >= 0, "m_max must be >= 0")
        _require(self.n_max >= 0, "n_max must be >= 0")
        _require(
            0 < self.evanescent_drop_tol < 1,
            "evanescent_drop_tol must be in (0, 1)",
        )


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description."""

    beam: BeamSpec
    slits: SlitGeometry
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    truncation: TruncationSpec = field(default_factory=TruncationSpec)

    def __post_init__(self) -> None:
        # Every grid direction must lie in the forward hemisphere.  On
        # |beta| < pi/2, sin^2 rises with |beta|, so the endpoint of larger
        # magnitude decides for the whole grid; the grid itself is never
        # built here.
        beta = max(self.detector.beta_min, self.detector.beta_max, key=abs)
        if abs(beta) >= math.pi / 2:
            raise ConfigError(
                f"detector grid contains invalid direction beta={beta!r}: "
                "|beta| must be < pi/2"
            )
        direction_cosine(self.beam.alpha, math.sin(beta))


def direction_cosine(alpha: float, sin_beta):
    """Direction cosine sqrt(cos^2(alpha) - sin^2(beta)) of the (alpha, beta) direction.

    sin_beta may be a float or an array.  Raises ConfigError unless every
    direction lies in the forward hemisphere sin^2(alpha) + sin^2(beta) < 1.
    """
    g2 = math.cos(alpha) ** 2 - np.square(sin_beta)
    if np.any(g2 <= 0.0):
        bad = float(np.asarray(sin_beta).flat[np.argmax(g2 <= 0.0)])
        raise ConfigError(
            f"invalid direction (alpha={alpha!r}, sin(beta)={bad!r}): outside the "
            "forward hemisphere sin^2(alpha) + sin^2(beta) < 1"
        )
    return np.sqrt(g2) if np.ndim(g2) else math.sqrt(g2)


def de_broglie_wavelength(beam: BeamSpec, hbar: float = HBAR) -> float:
    """Matter wavelength 2*pi*hbar / sqrt(2*M*E), in metres."""
    return 2.0 * math.pi * hbar / math.sqrt(2.0 * beam.mass * beam.energy)


def wavenumber(beam: BeamSpec, hbar: float = HBAR) -> float:
    """Free-space wavenumber sqrt(2*M*E)/hbar, in 1/m."""
    return math.sqrt(2.0 * beam.mass * beam.energy) / hbar


# --- config file parsing ----------------------------------------------------

_LENGTH_KEYS = ("a", "b", "c", "d")
_SCALAR_KEYS = {
    "mass_kg": float,
    "energy_ev": float,
    "amplitude": float,
    "alpha_rad": float,
    "R_m": float,
    "beta_min_rad": float,
    "beta_max_rad": float,
    "beta_steps": int,
    "m_max": int,
    "n_max": int,
    "evanescent_drop_tol": float,
}

# Geometry defaults, in de Broglie wavelengths.
_DEFAULT_LENGTHS_LAMBDA = {"a": 5.0, "b": 1000.0, "c": 1.0, "d": 25.0}


def _parse_number(key: str, text: str, caster) -> float | int:
    try:
        if caster is int:
            value = int(text, 10)
        else:
            value = float(text)
    except ValueError as exc:
        raise ConfigError(f"malformed number for key {key!r}: {text!r}") from exc
    if caster is float and not math.isfinite(value):
        raise ConfigError(f"malformed number for key {key!r}: {text!r}")
    return value


def parse_config(text: str) -> SimConfig:
    """Parse a `key = value` config document into a validated SimConfig.

    Lengths given with the unit token `lambda` are resolved against the
    de Broglie wavelength derived from the (possibly defaulted) beam keys.
    Unknown keys, duplicates, malformed numbers and violated invariants
    raise ConfigError naming the offending key.
    """
    scalars: dict[str, float | int] = {}
    lengths: dict[str, tuple[float, str]] = {}
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen.add(key)
        if key in _LENGTH_KEYS:
            parts = value.split()
            if len(parts) != 2 or parts[1] not in ("m", "lambda"):
                raise ConfigError(
                    f"key {key!r} needs '<number> m' or '<number> lambda', got {value!r}"
                )
            lengths[key] = (float(_parse_number(key, parts[0], float)), parts[1])
        elif key in _SCALAR_KEYS:
            scalars[key] = _parse_number(key, value, _SCALAR_KEYS[key])
        else:
            raise ConfigError(f"unknown key {key!r}")

    beam = BeamSpec(
        mass=float(scalars.get("mass_kg", ELECTRON_MASS)),
        energy=float(scalars.get("energy_ev", 0.001)) * EV_TO_J,
        amplitude=float(scalars.get("amplitude", 1e8)),
        alpha=float(scalars.get("alpha_rad", 0.01)),
    )
    lam = de_broglie_wavelength(beam)

    def length(key: str) -> float:
        if key in lengths:
            value, unit = lengths[key]
            return value * lam if unit == "lambda" else value
        return _DEFAULT_LENGTHS_LAMBDA[key] * lam

    slits = SlitGeometry(
        width_a=length("a"),
        length_b=length("b"),
        thickness_c=length("c"),
        separation_d=length("d"),
    )
    detector = DetectorSpec(
        distance_R=float(scalars.get("R_m", 1.0)),
        beta_min=float(scalars.get("beta_min_rad", -0.3)),
        beta_max=float(scalars.get("beta_max_rad", 0.3)),
        steps=int(scalars.get("beta_steps", 2001)),
    )
    truncation = TruncationSpec(
        m_max=int(scalars.get("m_max", 256)),
        n_max=int(scalars.get("n_max", 256)),
        evanescent_drop_tol=float(scalars.get("evanescent_drop_tol", 1e-6)),
    )
    return SimConfig(
        beam=beam,
        slits=slits,
        detector=detector,
        truncation=truncation,
    )


def _energy_ev_repr(energy_j: float) -> str:
    """Shortest eV string whose parse reproduces energy_j bit-exactly."""
    x = energy_j / EV_TO_J
    for cand in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
        if cand * EV_TO_J == energy_j:
            return repr(cand)
    return repr(x)


def serialize_config(config: SimConfig) -> str:
    """Render a SimConfig in the config-file format (round-trip exact)."""
    s = config.slits
    d = config.detector
    t = config.truncation
    lines = [
        f"mass_kg = {config.beam.mass!r}",
        f"energy_ev = {_energy_ev_repr(config.beam.energy)}",
        f"amplitude = {config.beam.amplitude!r}",
        f"alpha_rad = {config.beam.alpha!r}",
        f"a = {s.width_a!r} m",
        f"b = {s.length_b!r} m",
        f"c = {s.thickness_c!r} m",
        f"d = {s.separation_d!r} m",
        f"R_m = {d.distance_R!r}",
        f"beta_min_rad = {d.beta_min!r}",
        f"beta_max_rad = {d.beta_max!r}",
        f"beta_steps = {d.steps}",
        f"m_max = {t.m_max}",
        f"n_max = {t.n_max}",
        f"evanescent_drop_tol = {t.evanescent_drop_tol!r}",
    ]
    return "\n".join(lines) + "\n"


def with_detector(config: SimConfig, **kwargs) -> SimConfig:
    """Convenience copy with detector fields replaced."""
    return replace(config, detector=replace(config.detector, **kwargs))


def with_truncation(config: SimConfig, **kwargs) -> SimConfig:
    """Convenience copy with truncation fields replaced."""
    return replace(config, truncation=replace(config.truncation, **kwargs))
