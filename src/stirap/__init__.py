"""STIRAP in a three-level transmon: simulation and experiment harness."""

__version__ = "0.1.0"

from ._batch import BatchResult, evolve, run_batch  # noqa: F401
from .errors import (  # noqa: F401
    ConfigurationError,
    IntegrationFailureError,
    InvalidPulseError,
    InvalidStateError,
    MaxIterationsError,
    NonAdiabaticRunError,
    NonDispersiveError,
    NumericalError,
    PreconditionError,
    SingularDesignError,
    StirapError,
    UndefinedFrameError,
)
from .hamiltonian import (  # noqa: F401
    CavityParams,
    DispersiveShifts,
    SplitSpec,
    TransmonParams,
    dark_state,
    dispersive_shifts,
)
from .holonomy import (  # noqa: F401
    OraclePhase,
    ParameterPath,
    PhaseResult,
    adiabatic_phase_oracle,
    berry_phase,
    berry_vs_oracle,
    plateau_phase_sequence,
    realized_path,
)
from .lindblad import TimeGrid, dissipator  # noqa: F401
from .pulses import (  # noqa: F401
    AdiabaticityReport,
    FastPulse,
    GaussianPulse,
    PhaseRamp,
    PulseSequence,
    SequenceKind,
    Transition,
    build_sequence,
    global_adiabaticity_metric,
    two_pulse_sequence,
)
from .tomography import (  # noqa: F401
    MeasuredTrace,
    ReferenceTrace,
    TomographyResult,
    mix_traces,
    reconstruct_populations,
    synth_reference_traces,
    tomography_timeline,
)
from .units import mhz_to_rad_ns, rate_mhz_to_per_ns  # noqa: F401
