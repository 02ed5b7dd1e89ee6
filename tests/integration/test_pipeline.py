"""The end-to-end compile_loop pipeline."""

from fractions import Fraction

import numpy as np
import pytest

from repro import CompiledLoop, compile_loop
from repro.core import execute_schedule
from repro.errors import LoopIRError, ScheduleError
from repro.loops import KERNELS, reference_execute
from tests.conftest import L1_SOURCE, L2_SOURCE


class TestCompileLoop:
    def test_l1_end_to_end(self):
        result = compile_loop(L1_SOURCE, include_io=False)
        assert isinstance(result, CompiledLoop)
        assert result.schedule.rate == Fraction(1, 2)
        assert result.optimal_rate == Fraction(1, 2)
        assert result.scp is None

    def test_l2_end_to_end(self):
        result = compile_loop(L2_SOURCE, include_io=False)
        assert result.schedule.rate == Fraction(1, 3)
        assert result.bounds.case == "single"

    def test_scp_stage(self):
        result = compile_loop(L1_SOURCE, include_io=False, pipeline_stages=8)
        assert result.scp is not None
        assert result.scp_schedule is not None
        assert result.scp_schedule.rate < result.schedule.rate
        assert 0 < result.scp_utilization < 1

    def test_verification_on_by_default(self):
        # compile_loop with verify=True must not raise on valid loops
        compile_loop(L2_SOURCE, include_io=False, verify=True)

    def test_verify_can_be_disabled(self):
        result = compile_loop(L2_SOURCE, include_io=False, verify=False)
        assert result.schedule is not None

    def test_scalars_forwarded(self):
        result = compile_loop(
            "do:\n  X[i] = Q * Y[i] + X[i-1]", scalars={"Q": 2.0}
        )
        assert result.schedule is not None

    def test_missing_scalar_raises(self):
        with pytest.raises(LoopIRError, match="Q"):
            compile_loop("do:\n  X[i] = Q * Y[i] + X[i-1]")

    def test_full_io_mode_default(self):
        result = compile_loop(L1_SOURCE)
        assert result.pn.size == 14  # loads + computes + stores

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_all_kernels_compile_and_verify(self, key):
        k = KERNELS[key]
        result = compile_loop(k.source, scalars=k.scalar_bindings())
        assert result.schedule.rate == result.optimal_rate

    @pytest.mark.parametrize("key", ["loop1", "loop5", "loop11"])
    def test_compiled_schedule_preserves_semantics(self, key):
        k = KERNELS[key]
        result = compile_loop(k.source, scalars=k.scalar_bindings())
        iterations = 6
        arrays = {n: list(v) for n, v in k.make_inputs(iterations).items()}
        outputs = execute_schedule(
            result.translation.graph,
            result.schedule,
            arrays,
            iterations,
            result.translation.initial_values_for(k.boundary_values()),
        )
        reference = reference_execute(
            k.loop(), arrays, k.scalar_bindings(), iterations,
            k.boundary_values(),
        )
        for name, stream in reference.items():
            assert np.allclose(outputs[name], stream)

    def test_scp_schedule_verified_against_machine(self):
        from repro.machine import ScpMachine

        result = compile_loop(L2_SOURCE, include_io=False, pipeline_stages=4)
        machine = ScpMachine(result.pn, stages=4)
        run = machine.run_schedule(result.scp_schedule, iterations=10)
        assert run.issues == 10 * 5


class TestRateComputedOnce:
    """compile_loop runs the rate analysis (Howard + enumeration +
    Lawler cross-check) exactly once and caches the Fraction on the
    result — `optimal_rate` property accesses must not recompute."""

    def test_one_rate_phase_per_compilation(self):
        from repro.obs import default_registry

        registry = default_registry()
        registry.reset()
        registry.enable()
        try:
            result = compile_loop(L2_SOURCE, include_io=False)
            # repeated property access must be free
            for _ in range(5):
                assert result.optimal_rate == Fraction(1, 3)
            timers = registry.dump()["timers"]
            assert timers["core.optimal_rate"]["count"] == 1
        finally:
            registry.disable()
            registry.reset()

    def test_rate_field_is_populated_and_exact(self):
        result = compile_loop(L1_SOURCE, include_io=False)
        assert result.rate == Fraction(1, 2)
        assert result.optimal_rate is result.rate


class TestSummary:
    """``summary()`` is the parsed view of the payload the ``summarize``
    stage merged; it must agree with the live artifacts."""

    def test_summary_matches_the_compiled_artifacts(self):
        result = compile_loop(L2_SOURCE, include_io=False)
        summary = result.summary()
        assert summary.loop == "L2"
        assert summary.rate == result.optimal_rate
        assert summary.cycle_time == 3
        assert summary.schedule == result.schedule
        assert summary.bounds == result.bounds
        assert summary.frustum.length == result.frustum.length
        assert summary.pipeline_stages is None

    def test_summary_records_scp_artifacts(self):
        result = compile_loop(L1_SOURCE, include_io=False, pipeline_stages=8)
        summary = result.summary()
        assert summary.pipeline_stages == 8
        assert summary.scp_utilization == result.scp_utilization
        assert summary.scp_schedule == result.scp_schedule

    def test_summary_is_the_summarize_stage_output(self):
        result = compile_loop(
            L1_SOURCE, include_io=False, pipeline_stages=8, unroll=2
        )
        assert result.summary().payload() is result.payload
        assert result.summary().unroll == result.unroll == 2
        assert result.summary().achieved_rate == result.achieved_rate
