"""Loop frontend: IR, parser, dependence analysis, dataflow lowering,
reference semantics and the Livermore kernel suite."""

from .._lazy import lazy_exports

#: submodule -> the public names it defines; each submodule is imported
#: when one of its names is first read (see :mod:`repro._lazy`)
_EXPORTS = {
    "ir": (
        "ArrayRef", "Assign", "Binary", "Const", "Expr", "Loop", "ScalarRef",
        "Ternary", "Unary", "walk_expr",
    ),
    "parser": ("parse_expression", "parse_loop"),
    "dependence": ("Dependence", "DependenceInfo", "analyze"),
    "translate": ("TranslationResult", "translate"),
    "reference": ("reference_execute",),
    "livermore": ("KERNELS", "LivermoreKernel", "kernel", "paper_kernel_set"),
    "unroll": (
        "MAX_UNROLL", "base_instruction", "copy_name", "unroll_graph",
        "validate_unroll",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
