"""The paper's core contribution: SDSP formalism, SDSP-PN and
SDSP-SCP-PN construction, cyclic-frustum post-processing, schedule
derivation, rate/bound analysis, schedule verification, storage
optimisation, bottleneck attribution and causal blame
(:mod:`repro.core.blame` — the engine behind ``repro explain``)."""

from .._lazy import lazy_exports

#: submodule -> the public names it defines; each submodule is imported
#: when one of its names is first read (see :mod:`repro._lazy`)
_EXPORTS = {
    "attribution": (
        "AttributionReport", "TransitionAttribution", "attribute_bottlenecks",
        "place_occupancy",
    ),
    "blame": (
        "BLAME_SCHEMA_VERSION", "ExplainReport", "ObservedCycle",
        "blame_summary", "classifier_for", "explain_compiled",
        "observed_critical_path", "windowed_cycle_times", "write_flow_trace",
    ),
    "sdsp": ("AckArc", "Sdsp"),
    "sdsp_pn": (
        "SdspPetriNet", "SdspPnTable", "build_sdsp_pn", "sdsp_pn_table",
    ),
    "scp": ("RUN_PLACE", "SdspScpNet", "build_sdsp_scp_pn"),
    "frustum": ("SteadyStateNet", "steady_state_equivalent_net"),
    "schedule": ("PipelinedSchedule", "ScheduledOp", "derive_schedule"),
    "rate": (
        "CriticalCycles", "dependence_bound_rate", "dependence_cycle_time",
        "critical_cycles", "frustum_rate", "optimal_rate",
        "pipeline_utilization", "scp_rate_upper_bound",
    ),
    "bounds": (
        "CRITICAL_CYCLE_BUDGET", "DetectionMeasurement", "TheoreticalBounds",
        "count_critical_cycles", "measure_detection", "observed_bound_scp",
        "observed_bound_sdsp", "theoretical_bounds",
    ),
    "verify": (
        "VerificationReport", "execute_schedule", "verify_dependences",
        "verify_rate", "verify_resource", "verify_schedule",
    ),
    "storage": (
        "AckChain", "BufferBalance", "StorageAllocation", "apply_allocation",
        "balance_buffers", "balancing_ratios", "optimize_storage",
        "verify_allocation",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
