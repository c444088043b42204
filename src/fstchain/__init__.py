"""fstchain: parity-dependent fractional state transfer on qubit chains.

Synthesis of FST chain parameters, exact free-fermion simulation, the
non-local gate K_N with its two-qubit swap-network decomposition and
timing analysis, ancilla parity-measurement protocols, and a pulse-level
model of a three-transmon / two-tunable-coupler device.
"""

from .synthesis import (
    ChainParams,
    ChainSpec,
    SynthesisError,
    detuning_range,
    solve_gate_time,
    spectrum_check,
    synthesize,
)
from .propagator import (
    basis_state,
    dense_oracle,
    evolve_state,
    extract_transfer_phase,
    lift_to_full,
    single_propagator,
)
from .gates import (
    Circuit,
    build_generator,
    compile_decomposition,
    effective_gate,
    speed_gain,
    verify_mapping,
)
from .protocols import (
    Scenario,
    correlator_measure,
    parity_measure,
    repeated_parity,
    run_scenario,
)
from .device import (
    DeviceSpec,
    GateMetrics,
    PulseConfig,
    gate_metrics,
    optimize_pulse,
    propagate,
    seed_pulse_config,
    table_s1_spec,
    theory_pulse,
    zz_coupling,
)

__version__ = "0.1.0"
