"""The hetero backend: placement routing, bit-identity, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_backend
from repro.dram.config import hbm2e_like_config
from repro.dram.timing import hbm2e_like_timing
from repro.errors import ConfigurationError, LayoutError, ProtocolError
from repro.telemetry import SCHEMA
from repro.workloads.scenarios import scenario_model


def _config():
    return hbm2e_like_config(num_channels=2, banks_per_channel=8)


def _hetero(**kwargs):
    kwargs.setdefault("config", _config())
    kwargs.setdefault("timing", hbm2e_like_timing())
    return make_backend("hetero", **kwargs)


def _newton(**kwargs):
    kwargs.setdefault("config", _config())
    kwargs.setdefault("timing", hbm2e_like_timing())
    return make_backend("newton", **kwargs)


class TestConstruction:
    def test_rejects_unknown_placement(self):
        with pytest.raises(ConfigurationError):
            _hetero(placement="fastest")

    def test_gpu_overrides_reach_the_roofline(self):
        stock = _hetero(functional=False)
        tuned = _hetero(
            functional=False,
            gpu_overrides={"kernel_overhead_cycles": 12345.0},
        )
        assert (
            tuned.cost.gpu_model.kernel_overhead_cycles
            == stock.cost.gpu_model.kernel_overhead_cycles + 12345.0
        )

    def test_ignores_registry_knobs_it_does_not_own(self):
        # The registry passes one knob set to any backend name.
        backend = _hetero(functional=False, seed=3, mode="shard")
        assert backend.name == "hetero"
        backend.close()


class TestPlacementRouting:
    def test_batch_one_goes_to_newton(self):
        backend = _hetero(functional=False)
        handle = backend.load_matrix(m=512, n=512)
        backend.gemv(handle)
        assert backend.collect_metrics()["dispatches"]["newton"] == 1
        backend.close()

    def test_large_batch_goes_to_gpu(self):
        backend = _hetero(functional=False)
        handle = backend.load_matrix(m=512, n=512)
        runs = backend.gemv_batch(handle, batch=128)
        assert len(runs) == 128
        metrics = backend.collect_metrics()
        assert metrics["dispatches"]["gpu"] == 1
        # The whole dispatch is one kernel: total equals the roofline.
        total = sum(run.cycles for run in runs)
        assert total == pytest.approx(
            backend.cost.gpu_model.gemv_cycles(512, 512, batch=128)
        )
        backend.close()

    def test_forced_policies(self):
        for policy, side in [("all-newton", "newton"), ("all-gpu", "gpu")]:
            backend = _hetero(functional=False, placement=policy)
            handle = backend.load_matrix(m=512, n=512)
            backend.gemv(handle)
            backend.gemv_batch(handle, batch=128)
            counts = backend.collect_metrics()["dispatches"]
            assert counts[side] == 2
            assert counts["newton" if side == "gpu" else "gpu"] == 0
            backend.close()

    def test_crossing_charges_exposed_transfer(self):
        backend = _hetero(functional=False)
        handle = backend.load_matrix(m=512, n=512)
        solo = backend.gemv(handle).cycles  # newton, no boundary yet
        backend.gemv_batch(handle, batch=128)  # gpu: one crossing
        crossed = backend.gemv(handle).cycles  # back to newton: another
        metrics = backend.collect_metrics()
        assert metrics["crossings"] == 2
        assert metrics["exposed_transfer_cycles"] > 0
        assert crossed > solo - 1  # boundary cost rides on the run
        backend.close()

    def test_service_cycles_deterministic_and_placed(self):
        backend = _hetero(functional=False)
        small = backend.load_matrix(m=64, n=64)
        assert backend.service_cycles(small) == backend.service_cycles(small)
        # The serving layer sees the cheaper side's service time.
        assert backend.service_cycles(small) == min(
            backend.cost.measure("newton", 64, 64),
            backend.cost.predict("gpu", 64, 64),
        )
        backend.close()


class TestBitIdentity:
    """The hybrid's functional contract: placement never changes bits."""

    def test_gemv_chain_matches_all_newton(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((48, 64)).astype(np.float32)
        vectors = rng.standard_normal((130, 64)).astype(np.float32)
        ours = _hetero(functional=True)
        reference = _newton(functional=True)
        h1, h2 = ours.load_matrix(matrix), reference.load_matrix(matrix)
        # Mix regimes: singles, then a large batch, then singles again.
        a = [ours.gemv(h1, vectors[0]).output]
        a += [r.output for r in ours.gemv_batch(h1, vectors[1:129])]
        a.append(ours.gemv(h1, vectors[129]).output)
        b = [reference.gemv(h2, vectors[0]).output]
        b += [r.output for r in reference.gemv_batch(h2, vectors[1:129])]
        b.append(reference.gemv(h2, vectors[129]).output)
        assert len(a) == len(b) == 130
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        ours.close()
        reference.close()

    @pytest.mark.parametrize(
        "placement, batches",
        [("auto", (1, 512, 1, 1, 512, 1, 2, 1)), ("all-gpu", (1, 3, 1))],
    )
    def test_gpu_work_moves_no_newton_clock(self, placement, batches):
        """The GPU side contributes cycles, never Newton timing: after
        every dispatch a functional hybrid reports its timing-only
        twin's per-run cycles and Newton clock, and at the end its Newton
        telemetry; its outputs equal an all-Newton run's."""
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((512, 512)).astype(np.float32)
        ours = _hetero(functional=True, placement=placement)
        twin = _hetero(functional=False, placement=placement)
        reference = _newton(functional=True)
        h1, h2 = ours.load_matrix(matrix), twin.load_matrix(m=512, n=512)
        h3 = reference.load_matrix(matrix)
        for k in batches:
            vectors = rng.standard_normal((k, 512)).astype(np.float32)
            if k == 1:
                runs, twins = [ours.gemv(h1, vectors[0])], [twin.gemv(h2)]
            else:
                runs, twins = ours.gemv_batch(h1, vectors), twin.gemv_batch(h2, batch=k)
            assert [r.cycles for r in runs] == [r.cycles for r in twins]
            assert ours.newton.device.now == twin.newton.device.now
            for run, expected in zip(runs, reference.gemv_batch(h3, vectors)):
                assert np.array_equal(
                    run.output.view(np.uint32), expected.output.view(np.uint32)
                )
        assert ours.newton.collect_metrics() == twin.newton.collect_metrics()

    def test_refused_inputs_charge_no_crossing(self):
        """A call the device refuses is refused before placement: after a
        GPU-placed batch, a misfit vector, a missing vector and a batch
        size with no vectors leave the crossings, the exposed transfer,
        the dispatches and the decisions as they were, and the next valid
        call equals a twin's that was never refused."""
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((512, 512)).astype(np.float32)
        batch = rng.standard_normal((128, 512)).astype(np.float32)
        vector = rng.standard_normal(512).astype(np.float32)
        ours, twin = _hetero(functional=True), _hetero(functional=True)
        h1, h2 = ours.load_matrix(matrix), twin.load_matrix(matrix)
        ours.gemv_batch(h1, batch)
        twin.gemv_batch(h2, batch)

        def charged(backend):
            record = backend.collect_metrics()
            return {
                key: record[key]
                for key in (
                    "crossings",
                    "exposed_transfer_cycles",
                    "dispatches",
                    "decisions",
                )
            }

        before = charged(ours)
        assert before["dispatches"]["gpu"] == 1
        with pytest.raises(LayoutError):
            ours.gemv(h1, vector[:511])
        with pytest.raises(ProtocolError):
            ours.gemv(h1, None)
        with pytest.raises(ProtocolError):
            ours.gemv_batch(h1, batch=2)
        assert charged(ours) == before
        run, expected = ours.gemv(h1, vector), twin.gemv(h2, vector)
        assert run.cycles == expected.cycles
        assert np.array_equal(
            run.output.view(np.uint32), expected.output.view(np.uint32)
        )
        assert ours.collect_metrics() == twin.collect_metrics()
        assert charged(ours)["crossings"] == 1

    def test_session_outputs_match_all_newton(self):
        """A fused graph session on hetero is bit-identical to newton
        (the CI hetero-smoke contract)."""
        spec = scenario_model("decode", window=3)
        outs = {}
        for name in ("hetero", "newton"):
            engine = make_backend(name, functional=True)
            session = engine.open_session(spec, fused=True, seed=0)
            try:
                outs[name] = [r.output for r in session.run_steps(3)]
            finally:
                session.close()
                engine.close()
        for ours, reference in zip(outs["hetero"], outs["newton"]):
            assert np.array_equal(ours, reference)


class TestFusionAcrossBoundaries:
    def test_fused_honored_on_newton_side(self):
        backend = _hetero(functional=False, refresh_enabled=False)
        handle = backend.load_matrix(m=256, n=256)
        backend.gemv(handle)  # establish newton residency
        unfused = backend.gemv(handle).cycles
        fused = backend.gemv(handle, fused_input=True).cycles
        assert fused < unfused
        backend.close()

    def test_crossing_forces_host_round_trip(self):
        def third_run_cycles(fused_input: bool) -> float:
            backend = _hetero(functional=False, refresh_enabled=False)
            handle = backend.load_matrix(m=512, n=512)
            backend.gemv(handle)
            backend.gemv_batch(handle, batch=128)  # hop to the GPU side
            cycles = backend.gemv(handle, fused_input=fused_input).cycles
            exposed = backend.collect_metrics()["exposed_transfer_cycles"]
            backend.close()
            return cycles, exposed

        fused, fused_exposed = third_run_cycles(True)
        unfused, _ = third_run_cycles(False)
        # fused_input is dropped at the boundary: the crossing run costs
        # exactly what an unfused one does, handoff included.
        assert fused == unfused
        assert fused_exposed > 0


class TestTelemetry:
    def test_metrics_schema_and_decisions(self):
        backend = _hetero(functional=False)
        backend.calibrate(
            [type("L", (), {"name": "L", "m": 64, "n": 64})()]
        )
        handle = backend.load_matrix(m=64, n=64)
        backend.gemv(handle)
        backend.gemv_batch(handle, batch=4)
        record = backend.collect_metrics()
        assert record["schema"] == SCHEMA
        assert record["kind"] == "hetero"
        assert record["placement"] == "auto"
        assert sum(record["dispatches"].values()) == 2
        assert len(record["decisions"]) == 2
        decision = record["decisions"][0]
        for key in ("m", "n", "batch", "backend", "predicted_cycles",
                    "actual_cycles", "error_pct"):
            assert key in decision
        assert record["calibration"]["within_budget"] in (True, False)
        assert record["newton"]["schema"] == SCHEMA
        backend.close()

    def test_decision_records_bounded(self):
        from repro.backends.hetero import MAX_DECISION_RECORDS

        backend = _hetero(functional=False)
        handle = backend.load_matrix(m=16, n=32)
        for _ in range(MAX_DECISION_RECORDS + 5):
            backend.gemv(handle)
        record = backend.collect_metrics()
        assert len(record["decisions"]) == MAX_DECISION_RECORDS
        assert sum(record["dispatches"].values()) == MAX_DECISION_RECORDS + 5
        backend.close()
