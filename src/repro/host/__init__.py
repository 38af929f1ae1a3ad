"""Host-side runtime: accumulation, activation/normalization overlap,
end-to-end model execution, and traffic scheduling."""

from repro.host.accumulator import HostAccumulator
from repro.host.cells import LSTMCell
from repro.host.serving import ServingResult, ServingSimulator
from repro.host.mixed_traffic import NonAimRequest, NonAimTrafficSource
from repro.host.multi_model import ConcurrentRun, ModelPartition, MultiModelScheduler
from repro.host.pipeline import PipelineModel
from repro.host.runtime import LayerRun, LoadedModel, ModelRun, NewtonRuntime

__all__ = [
    "HostAccumulator",
    "LSTMCell",
    "ServingSimulator",
    "ServingResult",
    "NonAimRequest",
    "NonAimTrafficSource",
    "MultiModelScheduler",
    "ModelPartition",
    "ConcurrentRun",
    "PipelineModel",
    "NewtonRuntime",
    "LoadedModel",
    "LayerRun",
    "ModelRun",
]
