"""Three-level quantum-dot photocell: steady states, thermodynamics, optimization.

A four-state quantum dot (empty, two quasi-degenerate ground levels, one
excited level) exchanges electrons with two leads and photons with thermal
radiation.  Shared couplings of the ground doublet to the same baths sustain
a steady quantum coherence that reshapes the converter's current, power, and
efficiency at maximum power.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    DomainError,
    NoUniqueSteadyStateError,
    QdpcError,
    SecondLawViolationError,
    StepInstabilityError,
)
from .model import (
    INFINITE,
    ModelParams,
    RateSet,
    bose_occupation,
    build_rates,
    fermi_occupation,
    params_from_scaled,
    scaled_energies,
)
from .dynamics import (
    DensityState,
    Generator,
    SteadySolution,
    build_generator,
    evolve,
    steady_state,
)
from .thermo import (
    ThermoReport,
    currents,
    reference_efficiencies,
    thermo_report,
)
from .optimize import (
    DEFAULT_BOUNDS,
    CurvePoint,
    OptResult,
    efficiency_at_max_power_curve,
    grid_search_power,
    maximize_power,
    steady_observables_grid,
)
from .experiments import (
    SweepTable,
    default_eta_c_grid,
    default_r_grid,
    run_fig2,
    run_fig3a,
    run_fig3b,
)

# the version and every public name imported above; submodules are not exports
__all__ = ["__version__", *(n for n, v in list(globals().items())
                            if not n.startswith("_") and not isinstance(v, _ModuleType))]
