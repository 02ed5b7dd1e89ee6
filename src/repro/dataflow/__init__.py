"""Static dataflow graph substrate (the SDSP program representation).

Actors, data arcs (forward and feedback), a fluent builder, SDSP
well-formedness validation, and a value-level pipelined interpreter
used to verify that derived schedules preserve loop semantics.
"""

from .._lazy import lazy_exports

#: submodule -> the public names it defines; each submodule is imported
#: when one of its names is first read (see :mod:`repro._lazy`)
_EXPORTS = {
    "actors": (
        "DUMMY", "Actor", "ActorKind", "BINARY_OPERATIONS", "UNARY_OPERATIONS",
        "binop", "identity", "load", "merge", "sink", "store", "switch", "unop",
    ),
    "graph": ("ArcKind", "DataArc", "DataflowGraph"),
    "builder": ("GraphBuilder", "OutputRef"),
    "validate": ("ValidationReport", "require_valid", "validate"),
    "interp": ("InterpreterResult", "interpret"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
