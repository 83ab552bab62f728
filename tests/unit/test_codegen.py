"""Unit tests for fused code generation (``repro.runtime.codegen``).

Covers the shared node-to-kernel dispatch every executor runs through, the
fusion planner, the source emitter, the codegen switch and the module
cache, the plan store's kernel-source tier, the columnwise batching
analysis, the serving tier's stacked execution, and the plan API surfacing.
Bitwise parity across whole workloads lives in
``tests/property/test_codegen_parity.py``.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.lang import expr as la
from repro.lang.dims import Dim, Shape
from repro.runtime import kernels
from repro.runtime.codegen import (
    CODEGEN_VERSION,
    FusedPlan,
    build_executable,
    clear_module_cache,
    compile_fused,
    emit_source,
    plan_regions,
    resolve_backend,
    source_digest,
    stackable_slot,
)
from repro.runtime.codegen.plan import _build_fallback
from repro.runtime.data import MatrixValue
from repro.runtime.engine import ExecutionError, Executor
from repro.runtime.semiring import resolve_semiring
from repro.runtime.tape import TapePlan, ValuePool
from repro.serialize.store import PlanStore


def _slots(*shapes):
    return tuple(
        la.Var(f"@{index}", Shape(*dims)) for index, dims in enumerate(shapes)
    )


def _dims(rows, cols, tag=""):
    return Dim(f"r{tag}", rows), Dim(f"c{tag}", cols)


def _chain_expr():
    """``Sum(((A*B)+C) * (A+(B*C)) - (A*C))`` — one deep elementwise chain."""
    m, n = _dims(24, 18)
    A, B, C = _slots((m, n), (m, n), (m, n))
    return (
        la.Sum(
            la.ElemMinus(
                la.ElemMul(
                    la.ElemPlus(la.ElemMul(A, B), C),
                    la.ElemPlus(A, la.ElemMul(B, C)),
                ),
                la.ElemMul(A, C),
            )
        ),
        3,
    )


def _dense_inputs(n_slots, rows=24, cols=18, seed=0):
    rng = np.random.default_rng(seed)
    return [MatrixValue(rng.random((rows, cols))) for _ in range(n_slots)]


# ---------------------------------------------------------------------------
# One node-to-kernel dispatch
# ---------------------------------------------------------------------------

_DM, _DN, _DR, _ONE = Dim("dm", 16), Dim("dn", 12), Dim("dr", 3), Dim("one", 1)
_LEAF_TYPES = {la.Var, la.Literal, la.FilledMatrix}
_FUSED_OPERATOR_TYPES = (la.WSLoss, la.WCeMM, la.WDivMM, la.SProp, la.MMChain)
_RINGS = ("real", "min-plus", "max-times", "bool")

_ANY_RING = lambda ring: True
_REAL_ONLY = lambda ring: ring.is_real


def _node_cases():
    """``(id, one-node slot plan, rings whose KernelSet expresses it)``."""

    def slots(*dims):
        return [la.Var(f"@{i}", Shape(*pair)) for i, pair in enumerate(dims)]

    mn, nr, mr, rn = (_DM, _DN), (_DN, _DR), (_DM, _DR), (_DR, _DN)

    def unary(cls):
        return cls(*slots(mn))

    def binary(cls):
        return cls(*slots(mn, mn))

    return [
        ("MatMul", la.MatMul(*slots(mn, nr)), _ANY_RING),
        ("ElemMul", binary(la.ElemMul), _ANY_RING),
        ("ElemPlus", binary(la.ElemPlus), _ANY_RING),
        ("ElemMinus", binary(la.ElemMinus), lambda ring: ring.has_subtraction),
        ("ElemDiv", binary(la.ElemDiv), lambda ring: ring.has_division),
        ("Transpose", unary(la.Transpose), _ANY_RING),
        ("RowSums", unary(la.RowSums), _ANY_RING),
        ("ColSums", unary(la.ColSums), _ANY_RING),
        ("Sum", unary(la.Sum), _ANY_RING),
        ("Power", la.Power(*slots(mn), 2.0), _ANY_RING),
        ("Neg", unary(la.Neg), _REAL_ONLY),
        ("UnaryFunc", la.UnaryFunc("sqrt", *slots(mn)), _REAL_ONLY),
        ("CastScalar", la.CastScalar(*slots((_ONE, _ONE))), _ANY_RING),
        ("WSLoss", la.WSLoss(*slots(mn, mr, (_DN, _DR), mn)), _REAL_ONLY),
        ("WSLoss-unweighted", la.WSLoss(*slots(mn, mr, (_DN, _DR)), la.Literal(1.0)), _REAL_ONLY),
        ("WCeMM", la.WCeMM(*slots(mn, mr, rn)), _REAL_ONLY),
        ("WDivMM", la.WDivMM(*slots(mn, mr, rn), True), _REAL_ONLY),
        ("SProp", unary(la.SProp), _REAL_ONLY),
        ("MMChain", la.MMChain(*slots(mn, (_DN, _ONE), (_DM, _ONE))), _REAL_ONLY),
        ("MMChain-unweighted", la.MMChain(*slots(mn, (_DN, _ONE)), la.Literal(1.0)), _REAL_ONLY),
    ]


_NODE_CASES = _node_cases()


def _ring_inputs(expr, ring, seed=0):
    """Slot values valid under ``ring``; under real the first is sparse CSR."""
    rng = np.random.default_rng(seed)
    slot_vars = sorted(
        {node for node in expr.walk() if isinstance(node, la.Var)},
        key=lambda var: var.name,
    )
    values = []
    for var in slot_vars:
        shape = (var.shape.rows.size, var.shape.cols.size)
        if ring.name == "bool":
            data = rng.integers(0, 2, size=shape).astype(float)
        else:
            data = rng.integers(1, 8, size=shape) / 4.0  # dyadic: exact sums
        if ring.is_real and not values and data.size > 1:
            data = np.where(rng.random(shape) < 0.1, data, 0.0)
            values.append(MatrixValue(sparse.csr_matrix(data)))
        else:
            values.append(MatrixValue(data))
    return values


def _three_executors(expr, values, ring):
    """Run the interpreter, the tape and the fused-region fallback."""
    n_slots = len(values)
    region_plan = plan_regions(expr, n_slots, None)
    assert len(region_plan.regions) == 1 and not region_plan.consts
    fallback = _build_fallback(region_plan.regions[0], kernels.for_ring(ring))
    padding = [None] * (region_plan.n_positions - n_slots)
    return {
        "interpreter": lambda: Executor(ring).execute_slots(expr, values).value,
        "tape": lambda: TapePlan(expr, n_slots, ring=ring).execute(values).value,
        "fused-fallback": lambda: fallback(list(values) + padding),
    }


class TestSharedDispatch:
    def test_every_node_type_binds_or_is_a_leaf(self):
        real = kernels.for_ring(None)
        bound = set()
        for _case, expr, _rings in _NODE_CASES:
            binding = kernels.bind(expr, real)
            assert binding.fused == isinstance(expr, _FUSED_OPERATOR_TYPES)
            bound.add(type(expr))
        assert bound | _LEAF_TYPES == set(la.NODE_TYPES.values())
        assert not bound & _LEAF_TYPES
        for leaf in (
            la.Var("@0", Shape(_DM, _DN)),
            la.Literal(1.0),
            la.FilledMatrix(1.0, Shape(_DM, _DN)),
        ):
            with pytest.raises(ExecutionError):
                kernels.bind(leaf, real)

    @pytest.mark.parametrize("ring_name", _RINGS)
    @pytest.mark.parametrize(
        "case, expr, expressible", _NODE_CASES, ids=[case[0] for case in _NODE_CASES]
    )
    def test_one_node_plans_agree_across_executors(self, case, expr, expressible, ring_name):
        ring = resolve_semiring(ring_name)
        values = _ring_inputs(expr, ring)
        runs = _three_executors(expr, values, ring)
        if not expressible(ring):
            for executor, run in runs.items():
                with pytest.raises(kernels.RingKernelError):
                    run()
            return
        results = {executor: run() for executor, run in runs.items()}
        if ring.is_real:
            results["fused"] = compile_fused(expr, len(values), ring=ring).execute(values).value
        expected = results.pop("interpreter")
        for executor, got in results.items():
            assert got.is_sparse == expected.is_sparse, f"{case}/{ring_name}: {executor}"
            assert np.array_equal(got.to_dense(), expected.to_dense(), equal_nan=True), (
                f"{case}/{ring_name}: {executor} is not bitwise identical"
            )


# ---------------------------------------------------------------------------
# Fusion planner
# ---------------------------------------------------------------------------


class TestRegions:
    def test_elementwise_chain_collapses_to_one_region(self):
        expr, n_slots = _chain_expr()
        plan = plan_regions(expr, n_slots, None)
        assert len(plan.regions) == 1
        assert plan.fused_regions == 1
        region = plan.regions[0]
        assert region.fused
        assert isinstance(region.root, la.Sum)
        # the whole interior (6 elementwise ops) folded into the Sum
        assert len(region.schedule) >= 7
        assert plan.fused_operators == 1
        assert region.label().startswith("Fused[")

    def test_sparse_hint_gates_fusion_off(self):
        expr, n_slots = _chain_expr()
        dense = plan_regions(expr, n_slots, {0: None, 1: None, 2: None})
        sparse = plan_regions(expr, n_slots, {0: 0.01, 1: 0.01, 2: 0.01})
        assert dense.fused_regions == 1
        assert sparse.fused_regions == 0

    def test_structure_digest_is_deterministic_and_hint_banded(self):
        expr, n_slots = _chain_expr()
        a = plan_regions(expr, n_slots, None)
        b = plan_regions(expr, n_slots, None)
        assert a.structure_digest() == b.structure_digest()
        # a different sparsity *band* changes the fusion decisions
        c = plan_regions(expr, n_slots, {0: 0.01})
        assert a.structure_digest() != c.structure_digest()

    def test_region_step_group_matches_schedule(self):
        expr, n_slots = _chain_expr()
        fused = compile_fused(expr, n_slots, ring="real")
        group = fused.step_group(0)
        assert group[-1] is fused.step_node(0)
        assert len(group) == len(fused._regions[0].schedule)


# ---------------------------------------------------------------------------
# Emitter
# ---------------------------------------------------------------------------


class TestEmit:
    def test_emission_is_deterministic(self):
        expr, n_slots = _chain_expr()
        plan = plan_regions(expr, n_slots, None)
        first = emit_source(plan, "real")
        second = emit_source(plan, "real")
        assert first == second
        assert source_digest(first) == source_digest(second)

    def test_header_declares_version_ring_and_regions(self):
        expr, n_slots = _chain_expr()
        plan = plan_regions(expr, n_slots, None)
        header = emit_source(plan, "real").splitlines()[0]
        assert header == (
            f"# repro-codegen v{CODEGEN_VERSION} ring=real "
            f"regions={len(plan.regions)} fused={plan.fused_regions}"
        )

    def test_emitted_source_is_size_free(self):
        """One template's source must serve its whole size ladder."""
        small, n_slots = _chain_expr()
        m, n = _dims(96, 64, tag="L")
        A, B, C = _slots((m, n), (m, n), (m, n))
        large = la.Sum(
            la.ElemMinus(
                la.ElemMul(
                    la.ElemPlus(la.ElemMul(A, B), C),
                    la.ElemPlus(A, la.ElemMul(B, C)),
                ),
                la.ElemMul(A, C),
            )
        )
        source_small = emit_source(plan_regions(small, n_slots, None), "real")
        source_large = emit_source(plan_regions(large, n_slots, None), "real")
        assert source_small == source_large


# ---------------------------------------------------------------------------
# ValuePool
# ---------------------------------------------------------------------------


class TestValuePool:
    def test_acquire_release_reuses_buffers(self):
        pool = ValuePool(4)
        buf = pool.acquire()
        assert buf == [None, None, None, None]
        buf[2] = "x"
        pool.release(buf)
        again = pool.acquire()
        assert again is buf
        assert again == [None, None, None, None]

    def test_prefill_positions_survive_release(self):
        pool = ValuePool(3, prefill=[(1, "const")])
        buf = pool.acquire()
        assert buf == [None, "const", None]
        buf[0] = buf[2] = "junk"
        pool.release(buf)
        assert pool.acquire() == [None, "const", None]

    def test_limit_bounds_retained_buffers(self):
        pool = ValuePool(2, limit=1)
        first, second = pool.acquire(), pool.acquire()
        pool.release(first)
        pool.release(second)  # beyond the limit: dropped
        assert pool.acquire() is first
        assert pool.acquire() is not second


# ---------------------------------------------------------------------------
# Backends and module cache
# ---------------------------------------------------------------------------


class TestBackend:
    def test_only_auto_and_off_are_accepted(self):
        assert resolve_backend(None) == "auto"
        assert resolve_backend("off") == "off"
        for retired in ("python", "fortran"):
            with pytest.raises(ValueError):
                resolve_backend(retired)

    def test_off_and_nonreal_rings_return_none(self):
        expr, n_slots = _chain_expr()
        assert compile_fused(expr, n_slots, ring="real", backend="off") is None
        assert compile_fused(expr, n_slots, ring="min-plus") is None
        assert compile_fused(expr, n_slots, ring="bool") is None

    def test_build_executable_falls_back_to_tape(self):
        expr, n_slots = _chain_expr()
        assert isinstance(build_executable(expr, n_slots, ring="min-plus"), TapePlan)
        assert isinstance(
            build_executable(expr, n_slots, ring="real", backend="off"), TapePlan
        )
        assert isinstance(build_executable(expr, n_slots, ring="real"), FusedPlan)

    def test_module_cache_shares_namespaces(self):
        expr, n_slots = _chain_expr()
        clear_module_cache()
        a = compile_fused(expr, n_slots, ring="real")
        b = compile_fused(expr, n_slots, ring="real")
        assert a._run is b._run


# ---------------------------------------------------------------------------
# Store kernel tier
# ---------------------------------------------------------------------------


class TestKernelTier:
    def test_round_trip(self, tmp_path):
        store = PlanStore(str(tmp_path))
        source = "# header\nX = 1\n"
        assert store.load_kernel("tpl", "real") is None
        assert store.save_kernel("tpl", source, "real")
        assert store.load_kernel("tpl", "real") == source
        stats = store.describe()
        assert stats["kernel_entries"] == 1
        assert stats["kernel_hits"] == 1
        assert stats["kernel_misses"] == 1

    def test_corruption_reads_as_miss(self, tmp_path):
        store = PlanStore(str(tmp_path))
        store.save_kernel("tpl", "X = 1\n", "real")
        path = store._kernel_path("tpl", "real")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("tampered\n")
        assert store.load_kernel("tpl", "real") is None
        assert store.stats.load_errors == 1

    def test_kernel_files_dodge_entry_accounting_and_survive_gc(self, tmp_path):
        store = PlanStore(str(tmp_path), max_entries=1)
        store.save_kernel("tpl", "X = 1\n", "real")
        assert len(store) == 0  # not a plan entry
        assert store.gc() == 0
        assert store.load_kernel("tpl", "real") == "X = 1\n"
        store.clear()
        assert store.describe()["kernel_entries"] == 0

    def test_compile_fused_persists_and_reloads(self, tmp_path):
        store = PlanStore(str(tmp_path))
        expr, n_slots = _chain_expr()
        first = compile_fused(expr, n_slots, ring="real", store=store, digest="t1")
        assert store.describe()["kernel_entries"] == 1
        clear_module_cache()
        second = compile_fused(expr, n_slots, ring="real", store=store, digest="t1")
        assert store.stats.kernel_hits == 1
        assert first.source == second.source

    def test_corrupted_cached_source_regenerates(self, tmp_path):
        store = PlanStore(str(tmp_path))
        expr, n_slots = _chain_expr()
        fused = compile_fused(expr, n_slots, ring="real", store=store, digest="t1")
        path = store._kernel_path("t1", "real")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# repro-kernel sha256=bogus\ngarbage(\n")
        clear_module_cache()
        again = compile_fused(expr, n_slots, ring="real", store=store, digest="t1")
        assert again is not None
        assert again.source == fused.source
        values = _dense_inputs(n_slots)
        assert np.array_equal(
            again.execute(values).value.to_dense(),
            fused.execute(values).value.to_dense(),
        )


# ---------------------------------------------------------------------------
# Columnwise batching analysis
# ---------------------------------------------------------------------------


class TestStackableSlot:
    def _matvec(self):
        m, n = _dims(40, 30)
        A = la.Var("@0", Shape(m, n))
        q = la.Var("@1", Shape(n, Dim("one", 1)))
        return A, q

    def test_matvec_chain_is_stackable(self):
        A, q = self._matvec()
        expr = la.UnaryFunc("sigmoid", la.ElemPlus(la.MatMul(A, q), la.MatMul(A, q) * 0.5))
        assert stackable_slot(expr, 2) == 1

    def test_sum_over_the_vector_is_not(self):
        A, q = self._matvec()
        assert stackable_slot(la.Sum(la.MatMul(A, q)), 2) is None

    def test_transpose_of_the_vector_is_not(self):
        _, q = self._matvec()
        assert stackable_slot(la.MatMul(la.Transpose(q), q), 2) is None

    def test_right_side_matmul_is_not(self):
        A, q = self._matvec()
        # MatMul(columnwise, constant) mixes the stacked columns
        assert stackable_slot(la.MatMul(la.Transpose(q), la.Transpose(A)), 2) is None

    def test_column_shaped_constant_broadcast_is_stackable(self):
        m = Dim("m", 40)
        bias = la.Var("@0", Shape(m, Dim("one0", 1)))
        q = la.Var("@1", Shape(m, Dim("one1", 1)))
        expr = la.ElemPlus(q, bias)
        # both slots are column candidates; the lowest stackable index wins
        assert stackable_slot(expr, 2) == 0

    def test_matrix_only_plans_have_no_candidate(self):
        m, n = _dims(40, 30)
        A = la.Var("@0", Shape(m, n))
        assert stackable_slot(la.Sum(A), 1) is None


# ---------------------------------------------------------------------------
# FusedPlan execution semantics
# ---------------------------------------------------------------------------


class TestFusedPlan:
    def test_bitwise_parity_with_tape(self):
        expr, n_slots = _chain_expr()
        values = _dense_inputs(n_slots)
        tape = TapePlan(expr, n_slots, ring="real")
        fused = compile_fused(expr, n_slots, ring="real")
        expected = tape.execute(values).value
        got = fused.execute(values).value
        assert got.is_sparse == expected.is_sparse
        assert np.array_equal(got.to_dense(), expected.to_dense())

    def test_guard_fallback_on_sparse_runtime_input(self):
        m, n = _dims(40, 40)
        X = la.Var("@0", Shape(m, n))
        expr = la.Sum(la.ElemPlus(la.ElemMul(X, X), X))
        fused = compile_fused(expr, 1, ring="real")
        assert fused.fused_regions == 1
        rng = np.random.default_rng(3)
        dense = rng.random((40, 40))
        dense[dense < 0.95] = 0.0
        sparse_value = MatrixValue(dense).compacted()
        assert sparse_value.is_sparse
        tape = TapePlan(expr, 1, ring="real")
        expected = tape.execute([sparse_value]).value
        got = fused.execute([sparse_value]).value
        assert fused.fallback_runs == 1
        assert got.is_sparse == expected.is_sparse
        assert np.array_equal(got.to_dense(), expected.to_dense())

    def test_reuse_cache_and_profiler_hooks(self):
        from repro.obs.profile import TapeProfiler
        from repro.runtime.tape import StepReuseCache

        expr, n_slots = _chain_expr()
        values = _dense_inputs(n_slots)
        fused = compile_fused(expr, n_slots, ring="real")
        reuse = StepReuseCache()
        first = fused.execute(values, reuse=reuse).value
        second = fused.execute(values, reuse=reuse).value
        assert reuse.hits > 0
        assert np.array_equal(first.to_dense(), second.to_dense())
        profiler = TapeProfiler(len(fused))
        fused.execute(values, profiler=profiler)
        profiler.finish_run()
        assert sum(profiler.calls) == len(fused)

    def test_execution_stats_report_regions(self):
        expr, n_slots = _chain_expr()
        fused = compile_fused(expr, n_slots, ring="real")
        result = fused.execute(_dense_inputs(n_slots))
        assert result.stats.operators_executed == len(fused)
        assert result.stats.fused_operators == fused.fused_operators


# ---------------------------------------------------------------------------
# Serving integration
# ---------------------------------------------------------------------------


class TestServingStacked:
    def _engine_and_state(self):
        import time
        from concurrent.futures import Future

        from repro.serve.engine import ServingEngine
        from repro.serve.worker import ShardRequest

        m, n = Dim("m", 48), Dim("n", 32)
        A = la.Var("A", Shape(m, n))
        q = la.Var("q", Shape(n, Dim("one", 1)))
        expr = la.UnaryFunc("sigmoid", la.MatMul(A, q))
        rng = np.random.default_rng(0)
        pinned = MatrixValue(rng.random((48, 32)))
        vectors = [MatrixValue(rng.random((32, 1))) for _ in range(4)]
        engine = ServingEngine(shards=1)
        engine.run(expr, {"A": pinned, "q": vectors[0]})
        worker = engine.shards[0]
        state = next(iter(worker._plans.values()))
        requests = [
            ShardRequest(
                signature=state.plan.signature,
                expr=expr,
                inputs={"A": pinned, "q": vector},
                future=Future(),
                enqueued=time.perf_counter(),
            )
            for vector in vectors
        ]
        return engine, worker, state, requests, pinned, vectors

    def test_stacked_execution_matches_individual(self):
        engine, worker, state, requests, pinned, vectors = self._engine_and_state()
        try:
            assert state.batch.slot == 1
            worker._serve_stacked(state, requests)
            assert state.batch.status == "on"
            assert len(worker._prestacked) == len(requests)
            assert worker.counters.stacked_batches == 1
            assert worker.counters.stacked_requests == len(requests)
            for request, vector in zip(requests, vectors):
                got = worker._prestacked[id(request)].value
                individual = state.tape.execute(
                    [pinned, vector], state.reuse, None
                ).value
                assert got.is_sparse == individual.is_sparse
                assert np.array_equal(got.to_dense(), individual.to_dense())
        finally:
            worker._prestacked.clear()
            engine.close()

    def test_differing_pinned_inputs_disable_the_stack(self):
        engine, worker, state, requests, pinned, vectors = self._engine_and_state()
        try:
            other = MatrixValue(pinned.to_dense().copy())
            requests[2].inputs = {"A": other, "q": vectors[2]}
            worker._serve_stacked(state, requests)
            assert worker._prestacked == {}
            assert state.batch.status == "untested"  # no verdict, just skipped
        finally:
            engine.close()

    def test_engine_serves_stacked_bitwise_results(self):
        from repro.serve.engine import ServingEngine

        m, n = Dim("m", 96), Dim("n", 64)
        A = la.Var("A", Shape(m, n))
        q = la.Var("q", Shape(n, Dim("one", 1)))
        expr = la.UnaryFunc("sigmoid", la.MatMul(A, q))
        rng = np.random.default_rng(7)
        pinned = MatrixValue(rng.random((96, 64)))
        vectors = [MatrixValue(rng.random((64, 1))) for _ in range(24)]
        engine = ServingEngine(shards=1, max_batch=32)
        try:
            baseline = [
                engine.run(expr, {"A": pinned, "q": vector}).value.to_dense()
                for vector in vectors
            ]
            futures = [
                engine.submit(expr, {"A": pinned, "q": vector}) for vector in vectors
            ]
            for future, expected in zip(futures, baseline):
                got = future.result().value.to_dense()
                assert np.array_equal(got, expected)
            stats = engine.stats()
            assert stats.errors == 0
            assert stats.stacked_requests >= 0  # counters surfaced end to end
            assert "stacked_batches" in stats.to_dict()
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# Plan API surfacing
# ---------------------------------------------------------------------------


class TestPlanSurfacing:
    @pytest.fixture(scope="class")
    def plan(self):
        from repro.api.session import Session

        m, n = Dim("m", 32), Dim("n", 24)
        A = la.Var("A", Shape(m, n))
        B = la.Var("B", Shape(m, n))
        return Session().compile(la.Sum(la.ElemPlus(la.ElemMul(A, B), A)))

    def _inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "A": MatrixValue(rng.random((32, 24))),
            "B": MatrixValue(rng.random((32, 24))),
        }

    def test_codegen_info_reports_structure(self, plan):
        info = plan.codegen_info()
        assert info["fused"] is True
        assert info["regions"] <= info["tape_steps"]
        assert info["fused_regions"] >= 1
        assert any("Fused[" in label for label in info["region_labels"])
        off = plan.codegen_info(backend="off")
        assert off["fused"] is False

    def test_explain_carries_a_codegen_line(self, plan):
        text = plan.explain()
        assert "codegen     :" in text
        assert "regions" in text

    def test_to_dict_carries_the_codegen_record(self, plan):
        record = plan.to_dict()
        assert record["codegen"]["fused"] is True
        assert record["codegen"]["backend"] == resolve_backend(None)

    def test_profile_fused_reports_regions_not_steps(self, plan):
        tape_report = plan.profile(self._inputs(), runs=1)
        fused_report = plan.profile(self._inputs(), runs=1, backend="fused")
        info = plan.codegen_info()
        assert len(tape_report.steps) == info["tape_steps"]
        assert len(fused_report.steps) == info["regions"]
        fused_ops = [step.op for step in fused_report.steps]
        assert any(op.startswith("Fused[") for op in fused_ops)
