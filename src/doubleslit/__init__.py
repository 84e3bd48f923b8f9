"""Electron double-slit diffraction simulator.

In-slit waveguide mode expansion, closed-form Kirchhoff far-field
intensity scans, an independent quadrature oracle, and missing-order
analytics.
"""

from .config import (
    HBAR,
    EV_TO_J,
    ELECTRON_MASS,
    BeamSpec,
    ConfigError,
    DetectorSpec,
    SimConfig,
    SlitGeometry,
    TruncationSpec,
    de_broglie_wavelength,
    direction_cosine,
    parse_config,
    serialize_config,
    wavenumber,
)
from .modes import (
    ModeIndex,
    ModeTable,
    ModeTerm,
    TruncationWarning,
    axial_wavenumber,
    enumerate_modes,
    in_slit_wavefunction,
    mode_coefficient,
    second_slit_wavefunction,
    thickness_attenuation,
)
from .farfield import (
    DiffractionScan,
    DirectionAngles,
    ScanRow,
    amplitudes,
    obliquity_prefactor,
    scan,
    sine_fourier_integral,
)
from .quadrature import (
    QuadratureDepthError,
    QuadratureResult,
    integrate_1d,
    oracle_sine_fourier,
    oracle_surface_amplitude,
)
from .analysis import (
    DEFAULT_SUPPRESSION_THRESHOLD,
    MissingOrderReport,
    Peak,
    factorization_audit,
    find_peaks,
    missing_orders,
    report_rows,
    report_text,
    two_slit_order_angles,
)

__version__ = "0.1.0"
