"""Loop intermediate representation.

The paper's experimental pipeline compiles SISAL loops to static
dataflow graphs through the McGill A-code testbed; this IR is our
substitute frontend (see DESIGN.md §4).  It captures exactly the loop
shape the SDSP model handles: a single non-nested loop over an index
``i`` whose body is a sequence of scalar/array assignments, with
loop-carried dependences of distance one.

Expression grammar::

    expr    := Const | ScalarRef | ArrayRef | Unary(op, expr)
             | Binary(op, expr, expr)
    ArrayRef subscripts are affine in the loop index: ``A[i + c]``.

Statements assign to ``A[i]`` (an array element) or to a scalar
(an accumulator).  :mod:`repro.loops.dependence` classifies the arcs
between statements and :mod:`repro.loops.translate` lowers the loop to
a dataflow graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import LoopIRError

__all__ = [
    "Const",
    "ScalarRef",
    "ArrayRef",
    "Unary",
    "Binary",
    "Ternary",
    "Expr",
    "Assign",
    "Loop",
    "walk_expr",
]


@dataclass(frozen=True)
class Const:
    """A numeric literal."""

    value: float

    def __str__(self) -> str:
        if isinstance(self.value, float) and self.value.is_integer():
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class ScalarRef:
    """A scalar variable: loop-invariant (never assigned in the loop)
    or an accumulator (assigned and carried across iterations)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef:
    """``array[i + offset]`` — the subscript is the loop index plus a
    compile-time constant."""

    array: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset > 0:
            return f"{self.array}[i+{self.offset}]"
        if self.offset < 0:
            return f"{self.array}[i{self.offset}]"
        return f"{self.array}[i]"


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Ternary:
    """A conditional expression ``where(cond, then, els)`` — the source
    form of the paper's well-formed conditional dataflow subgraphs
    (Section 3.2): lowering routes each branch operand through a SWITCH
    gated by ``cond`` and joins the branch values with a MERGE."""

    cond: "Expr"
    then: "Expr"
    els: "Expr"

    def __str__(self) -> str:
        return f"where({self.cond}, {self.then}, {self.els})"


Expr = Union[Const, ScalarRef, ArrayRef, Unary, Binary, Ternary]


@dataclass(frozen=True)
class Assign:
    """``target = expr``; the target is ``A[i]`` or a scalar."""

    target: Union[ArrayRef, ScalarRef]
    expr: Expr

    def __post_init__(self) -> None:
        if isinstance(self.target, ArrayRef) and self.target.offset != 0:
            raise LoopIRError(
                f"assignments must target {self.target.array}[i]; offset "
                f"{self.target.offset} writes are not in the SDSP loop class"
            )

    @property
    def target_name(self) -> str:
        if isinstance(self.target, ArrayRef):
            return self.target.array
        return self.target.name

    def __str__(self) -> str:
        return f"{self.target} = {self.expr}"


@dataclass
class Loop:
    """A single (innermost) loop.

    ``parallel`` records the source-level annotation: ``doall`` loops
    claim no loop-carried dependence, which the dependence analyser
    verifies rather than trusts.
    """

    name: str
    statements: List[Assign]
    parallel: bool = False

    def __post_init__(self) -> None:
        if not self.statements:
            raise LoopIRError(f"loop {self.name!r} has an empty body")
        seen: Set[str] = set()
        for statement in self.statements:
            target = statement.target_name
            if target in seen:
                raise LoopIRError(
                    f"loop {self.name!r} assigns {target!r} twice; the "
                    "single-assignment form required by dataflow translation "
                    "is violated"
                )
            seen.add(target)

    # ------------------------------------------------------------------
    # Name classification
    # ------------------------------------------------------------------
    @property
    def defined_names(self) -> Set[str]:
        """Arrays/scalars written by the loop body."""
        return {s.target_name for s in self.statements}

    @property
    def input_arrays(self) -> Set[str]:
        """Arrays read but never written (pure loop inputs)."""
        names: Set[str] = set()
        for statement in self.statements:
            for node in walk_expr(statement.expr):
                if isinstance(node, ArrayRef) and node.array not in self.defined_names:
                    names.add(node.array)
        return names

    @property
    def invariant_scalars(self) -> Set[str]:
        """Scalars read but never written (loop constants like Q, R, T
        in Livermore loop 1)."""
        names: Set[str] = set()
        for statement in self.statements:
            for node in walk_expr(statement.expr):
                if isinstance(node, ScalarRef) and node.name not in self.defined_names:
                    names.add(node.name)
        return names

    @property
    def output_arrays(self) -> Set[str]:
        return {
            s.target.array
            for s in self.statements
            if isinstance(s.target, ArrayRef)
        }

    @property
    def accumulator_scalars(self) -> Set[str]:
        return {
            s.target.name
            for s in self.statements
            if isinstance(s.target, ScalarRef)
        }

    def statement_for(self, name: str) -> Assign:
        for statement in self.statements:
            if statement.target_name == name:
                return statement
        raise LoopIRError(f"loop {self.name!r} does not define {name!r}")

    def __str__(self) -> str:
        keyword = "doall" if self.parallel else "do"
        body = "\n".join(f"  {s}" for s in self.statements)
        return f"{keyword} i:\n{body}"


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Ternary):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.els)
