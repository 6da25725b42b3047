"""kinfp: finite-volume simulation and Lyapunov-drift certification for
confined kinetic Fokker-Planck equations with fat-tailed velocity equilibria."""

__version__ = "0.1.0"

from .grid import Field, PhaseGrid
from .model import (
    ExpWeight,
    LyapunovSpec,
    ModelParams,
    PolyWeight,
    apply_Lstar_exact,
    asymptotic_correction,
    asymptotic_density,
    drift_excess,
    energy,
    equilibrium_drift,
    grad_potential,
    grad_v_H,
    jbracket,
    lyapunov_H,
    lyapunov_weight,
    phi,
    potential,
)
from .solver import (
    SolverConfig,
    Sinks,
    cfl_timestep,
    default_initial_condition,
    run,
    steady_state_reference,
)
from .diagnostics import (
    RateFit,
    density,
    energy_scatter,
    l1_distance,
    mass,
    rate_fit,
    reference_profile,
    tail_comparison,
)
from .verify import (
    CertificateReport,
    ScanConfig,
    find_certified_spec,
    scan_drift_inequality,
)

# the names the commands, perfbench and the README use; the rest stay
# importable by name from here and from their modules
__all__ = (
    "Field", "PhaseGrid",
    "ExpWeight", "LyapunovSpec", "ModelParams", "PolyWeight",
    "SolverConfig", "Sinks", "default_initial_condition", "run", "steady_state_reference",
    "density", "l1_distance", "mass", "rate_fit", "reference_profile",
    "ScanConfig", "find_certified_spec", "scan_drift_inequality",
)
