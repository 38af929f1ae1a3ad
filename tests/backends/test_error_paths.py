"""Error-path contracts: ProtocolError and LayoutError surfaces.

Every batch entry point must reject malformed shapes with LayoutError
(not a numpy broadcast error three layers down), and the per-command
datapath model must refuse protocol-order violations — reading the global
buffer before a GWRITE loaded it, touching latches that do not exist —
with ProtocolError.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import available_backends, make_backend
from repro.cluster import ShardedCluster
from repro.core.device import validate_batch_vectors
from repro.core.global_buffer import GlobalBuffer
from repro.core.mac_unit import BankMacUnit
from repro.dram.config import DRAMConfig
from repro.dram.timing import TimingParams
from repro.errors import LayoutError, ProtocolError

SMALL = DRAMConfig(num_channels=1, banks_per_channel=8, rows_per_bank=256)
M, N = 4, 32


class TestCompBeforeGwrite:
    """COMP semantics on a functional device require a loaded buffer."""

    def test_read_subchunk_before_gwrite(self):
        buffer = GlobalBuffer(SMALL)
        with pytest.raises(ProtocolError, match="GWRITE"):
            buffer.read_subchunk(0)

    def test_loaded_subchunk_reads_back(self):
        buffer = GlobalBuffer(SMALL)
        buffer.load_subchunk(0, np.ones(SMALL.elems_per_col))
        assert buffer.read_subchunk(0).shape == (SMALL.elems_per_col,)

    def test_subchunk_index_out_of_range(self):
        buffer = GlobalBuffer(SMALL)
        with pytest.raises(ProtocolError):
            buffer.read_subchunk(buffer.subchunks)
        with pytest.raises(ProtocolError):
            buffer.load_subchunk(-1, np.ones(SMALL.elems_per_col))

    def test_gwrite_of_wrong_width(self):
        buffer = GlobalBuffer(SMALL)
        with pytest.raises(ProtocolError, match="sub-chunk"):
            buffer.load_subchunk(0, np.ones(SMALL.elems_per_col + 1))

    def test_mac_latch_out_of_range(self):
        mac = BankMacUnit(SMALL, num_latches=1)
        lanes = np.ones(SMALL.mults_per_bank, dtype=np.float32)
        with pytest.raises(ProtocolError, match="latch"):
            mac.compute(lanes, lanes, latch=1)
        with pytest.raises(ProtocolError, match="latch"):
            mac.read_and_clear(-1)

    def test_mac_operand_width(self):
        mac = BankMacUnit(SMALL)
        with pytest.raises(ProtocolError, match="sub-chunk"):
            mac.compute(np.ones(3), np.ones(3))


class TestBatchShapeValidation:
    def test_validator_promotes_1d(self):
        out = validate_batch_vectors(np.zeros(N, dtype=np.float32), N)
        assert out.shape == (1, N)

    @pytest.mark.parametrize(
        "shape", [(2, 2, N), (N,) * 3, (2, N + 1), (N + 1,), (0, N)]
    )
    def test_validator_rejects(self, shape):
        with pytest.raises(LayoutError):
            validate_batch_vectors(np.zeros(shape, dtype=np.float32), N)

    @pytest.fixture(params=sorted(available_backends()))
    def backend(self, request):
        return make_backend(
            request.param, SMALL, TimingParams(), functional=True
        )

    def test_every_backend_rejects_malformed_batches(self, backend, rng):
        matrix = rng.standard_normal((M, N)).astype(np.float32)
        handle = backend.load_matrix(matrix)
        with pytest.raises(LayoutError):
            backend.gemv_batch(handle, np.zeros((2, 2, N), dtype=np.float32))
        with pytest.raises(LayoutError):
            backend.gemv_batch(handle, np.zeros((2, N + 1), dtype=np.float32))
        with pytest.raises(LayoutError):
            backend.gemv_batch(handle, np.zeros(N + 1, dtype=np.float32))
        with pytest.raises(LayoutError):
            backend.gemv_batch(handle, np.zeros((0, N), dtype=np.float32))
        # The legal twin still runs.
        runs = backend.gemv_batch(
            handle, np.zeros((2, N), dtype=np.float32)
        )
        assert len(runs) == 2

    def test_cluster_rejects_malformed_batches(self, rng):
        cluster = ShardedCluster(
            [
                make_backend("newton", SMALL, TimingParams(), functional=True)
                for _ in range(2)
            ]
        )
        matrix = rng.standard_normal((M, N)).astype(np.float32)
        handle = cluster.load_matrix(matrix)
        with pytest.raises(LayoutError):
            cluster.gemv_batch(handle, np.zeros((2, 2, N), dtype=np.float32))
        with pytest.raises(LayoutError):
            cluster.gemv_batch(handle, np.zeros((3, N - 1), dtype=np.float32))
        with pytest.raises(LayoutError):
            cluster.gemv_batch(handle, np.zeros((0, N), dtype=np.float32))
        assert len(cluster.gemv_batch(handle, np.zeros((2, N)))) == 2
