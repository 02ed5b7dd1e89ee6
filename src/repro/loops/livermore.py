"""The Livermore loops used in the paper's experiments (Section 5).

The paper simulates six Livermore kernels, written in SISAL, through
the McGill A-code testbed:

* without loop-carried dependence (LCD): Loop 1 (hydro fragment),
  Loop 7 (equation of state fragment), Loop 12 (first difference);
* with LCD: Loop 3 (inner product), Loop 5 (tri-diagonal elimination,
  below the diagonal), Loop 9 (integrate predictors — examined both
  with and without LCD, since exposing its DOALL parallelism needs
  subscript analysis; paper footnote 5).

We re-express each kernel in the loop IR (see DESIGN.md §4 for why
this substitution is faithful) and add Loop 11 (first sum), which the
paper's Table 1 area also mentions, as an extra LCD datapoint.  Every
kernel carries reference input generators so the whole pipeline can be
checked semantically, not just structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import LoopIRError
from .ir import Loop
from .parser import parse_loop
from .translate import TranslationResult, translate

__all__ = ["LivermoreKernel", "KERNELS", "kernel", "paper_kernel_set"]


@dataclass(frozen=True)
class LivermoreKernel:
    """One benchmark kernel.

    ``scalars`` binds the loop-invariant scalars; ``array_margin`` maps
    each input array to the extra elements needed beyond the iteration
    count (positive subscript offsets); ``boundary`` gives pre-loop
    values for loop-carried names.
    """

    key: str
    number: int
    title: str
    has_lcd: bool
    source: str
    scalars: Tuple[Tuple[str, float], ...] = ()
    array_margin: Tuple[Tuple[str, int], ...] = ()
    boundary: Tuple[Tuple[str, float], ...] = ()

    def loop(self) -> Loop:
        return parse_loop(self.source)

    def scalar_bindings(self) -> Dict[str, float]:
        return dict(self.scalars)

    def boundary_values(self) -> Dict[str, float]:
        return dict(self.boundary)

    def translation(self, store_scalars: bool = True) -> TranslationResult:
        return translate(
            self.loop(), self.scalar_bindings(), store_scalars=store_scalars
        )

    def input_arrays(self) -> List[str]:
        loop = self.loop()
        return sorted(loop.input_arrays)

    def make_inputs(
        self, iterations: int, seed: int = 0
    ) -> Dict[str, Any]:
        """Deterministic pseudo-random numpy input arrays sized for
        ``iterations`` iterations (plus subscript margins)."""
        import numpy as np

        rng = np.random.default_rng(seed + self.number)
        margins = dict(self.array_margin)
        arrays: Dict[str, np.ndarray] = {}
        for name in self.input_arrays():
            length = iterations + margins.get(name, 0)
            arrays[name] = rng.uniform(0.5, 1.5, size=length)
        return arrays


def _kernel(*args: Any, **kwargs: Any) -> LivermoreKernel:
    k = LivermoreKernel(*args, **kwargs)
    # Fail fast on typos: parse and analyse at import time.
    loop = k.loop()
    if loop.parallel and k.has_lcd:
        raise LoopIRError(f"kernel {k.key}: doall loop marked has_lcd")
    return k


KERNELS: Dict[str, LivermoreKernel] = {}


def _register(kernel_obj: LivermoreKernel) -> None:
    KERNELS[kernel_obj.key] = kernel_obj


_register(
    _kernel(
        key="loop1",
        number=1,
        title="Hydro fragment",
        has_lcd=False,
        source=(
            "doall loop1:\n"
            "  X[i] = Q + Y[i] * (R * Z[i+10] + T * Z[i+11])\n"
        ),
        scalars=(("Q", 0.5), ("R", 0.25), ("T", 0.125)),
        array_margin=(("Z", 11),),
    )
)

_register(
    _kernel(
        key="loop3",
        number=3,
        title="Inner product",
        has_lcd=True,
        source="do loop3:\n  Q = Q + Z[i] * X[i]\n",
        boundary=(("Q", 0.0),),
    )
)

_register(
    _kernel(
        key="loop5",
        number=5,
        title="Tri-diagonal elimination, below the diagonal",
        has_lcd=True,
        source="do loop5:\n  X[i] = Z[i] * (Y[i] - X[i-1])\n",
        boundary=(("X", 1.0),),
    )
)

_register(
    _kernel(
        key="loop7",
        number=7,
        title="Equation of state fragment",
        has_lcd=False,
        source=(
            "doall loop7:\n"
            "  X[i] = U[i] + R * (Z[i] + R * Y[i])"
            " + T * (U[i+3] + R * (U[i+2] + R * U[i+1])"
            " + T * (U[i+6] + Q * (U[i+5] + Q * U[i+4])))\n"
        ),
        scalars=(("Q", 0.5), ("R", 0.25), ("T", 0.125)),
        array_margin=(("U", 6),),
    )
)

_register(
    _kernel(
        key="loop9",
        number=9,
        title="Integrate predictors (DOALL after subscript analysis)",
        has_lcd=False,
        source=(
            "doall loop9:\n"
            "  PX1[i] = DM28 * PX13[i] + DM27 * PX12[i] + DM26 * PX11[i]"
            " + DM25 * PX10[i] + DM24 * PX9[i] + DM23 * PX8[i]"
            " + DM22 * PX7[i] + C0 * (PX5[i] + PX6[i]) + PX3[i]\n"
        ),
        scalars=(
            ("DM22", 0.2), ("DM23", 0.3), ("DM24", 0.4), ("DM25", 0.5),
            ("DM26", 0.6), ("DM27", 0.7), ("DM28", 0.8), ("C0", 0.9),
        ),
    )
)

_register(
    _kernel(
        key="loop9lcd",
        number=9,
        title="Integrate predictors (conservative: no subscript analysis)",
        has_lcd=True,
        # Without subscript analysis the write to row 1 of PX and the
        # reads of other rows cannot be disambiguated, so a distance-1
        # carried dependence must be assumed.  The value-neutral
        # '0 * PX1[i-1]' term expresses that assumption without
        # changing the computed values.
        source=(
            "do loop9lcd:\n"
            "  PX1[i] = DM28 * PX13[i] + DM27 * PX12[i] + DM26 * PX11[i]"
            " + DM25 * PX10[i] + DM24 * PX9[i] + DM23 * PX8[i]"
            " + DM22 * PX7[i] + C0 * (PX5[i] + PX6[i]) + PX3[i]"
            " + 0 * PX1[i-1]\n"
        ),
        scalars=(
            ("DM22", 0.2), ("DM23", 0.3), ("DM24", 0.4), ("DM25", 0.5),
            ("DM26", 0.6), ("DM27", 0.7), ("DM28", 0.8), ("C0", 0.9),
        ),
        boundary=(("PX1", 0.0),),
    )
)

_register(
    _kernel(
        key="loop11",
        number=11,
        title="First sum (running total)",
        has_lcd=True,
        source="do loop11:\n  X[i] = X[i-1] + Y[i]\n",
        boundary=(("X", 0.0),),
    )
)

_register(
    _kernel(
        key="loop12",
        number=12,
        title="First difference",
        has_lcd=False,
        source="doall loop12:\n  X[i] = Y[i+1] - Y[i]\n",
        array_margin=(("Y", 1),),
    )
)


def kernel(key: str) -> LivermoreKernel:
    """Look up a kernel by key (``loop1`` .. ``loop12``)."""
    try:
        return KERNELS[key]
    except KeyError:
        raise LoopIRError(
            f"unknown Livermore kernel {key!r}; available: "
            + ", ".join(sorted(KERNELS))
        ) from None


def paper_kernel_set() -> List[LivermoreKernel]:
    """The kernels of Tables 1 and 2, in the paper's order: the three
    DOALL loops, then the LCD loops (with both Loop 9 variants)."""
    order = ["loop1", "loop7", "loop12", "loop3", "loop5", "loop9", "loop9lcd"]
    return [KERNELS[key] for key in order]
