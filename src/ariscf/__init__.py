"""Active-RIS aided cell-free massive MIMO uplink toolkit."""

from .scenario import (
    NetworkRealization,
    Scenario,
    build_correlation_matrix,
    dbm_to_watt,
    large_scale_gain,
    load_scenario,
    ris_correlation,
    sample_layout,
)
from .ris import RisState, amplitude_gain, aris_output_power
from .channel import (
    PhaseTraces,
    SecondOrderStats,
    compute_stats,
    cross_moment_cyclic,
    cross_moments,
    fourth_moment,
    phase_traces,
)
from .estimation import EstimationStats, compute_estimation_stats
from .perf import (
    SinrBreakdown,
    energy_efficiency,
    evaluate_phases,
    sinr_all,
    sinr_user,
)

__version__ = "0.1.0"
