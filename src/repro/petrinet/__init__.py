"""Timed Petri-net substrate.

This package implements the Petri-net machinery of Appendix A of the
paper: untimed nets and markings, reachability-based behavioural
properties, marked-graph theory, timed nets with instantaneous states,
the earliest-firing simulators (unit-time stepping and event-driven),
behavior graphs with cyclic-frustum detection, and cycle-time analysis
(Howard's policy iteration, which every command runs; enumeration,
parametric search and linear programming as test oracles).
"""

from .._lazy import lazy_exports

#: submodule -> the public names it defines; each submodule is imported
#: when one of its names is first read (see :mod:`repro._lazy`)
_EXPORTS = {
    "net": ("Arc", "PetriNet", "Place", "Transition"),
    "marking": ("Marking", "enabled_transitions", "fire"),
    "reachability": ("ReachabilityGraph", "explore"),
    "properties": (
        "bound_of", "consistent_firing_vector", "deadlocked_markings",
        "is_bounded", "is_consistent", "is_live", "is_persistent", "is_safe",
    ),
    "marked_graph": (
        "MarkedGraphView", "SimpleCycle", "expand_node_cycle",
        "require_marked_graph",
    ),
    "timed": ("InstantaneousState", "TimedPetriNet"),
    "simulator": (
        "ConflictResolutionPolicy", "EarliestFiringSimulator", "FireAllPolicy",
        "StepRecord",
    ),
    "event_sim": ("EventDrivenSimulator", "EventFrustumDetector"),
    "behavior": (
        "BehaviorGraph", "BehaviorStep", "CyclicFrustum", "FrustumDetector",
        "PlaceInstance", "TransitionInstance", "detect_frustum",
    ),
    "howard": (
        "HowardResult", "check_certificate", "cycle_time_howard",
        "howard_analysis",
    ),
    "analysis": (
        "CriticalCycleReport", "CycleMetrics", "computation_rate",
        "critical_cycle_report", "cycle_metrics", "cycle_time_by_enumeration",
        "cycle_time_lawler",
    ),
    "linprog": ("PeriodicScheduleLP", "cycle_time_lp"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
