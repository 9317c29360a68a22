"""Parameter-server machine-learning substrate (Figure 1a/b experiments)."""

from repro.mlsys.datasets import (
    Dataset,
    SyntheticMnistSpec,
    generate_synthetic_mnist,
    pixel_activity_profile,
)
from repro.mlsys.model import GradientUpdate, SoftmaxModel, softmax
from repro.mlsys.optimizers import SGD, Adam, Optimizer, make_optimizer
from repro.mlsys.overlap import OverlapSeries, StepOverlap, measure_step_overlap
from repro.mlsys.parameter_server import ParameterServer, ServerTrafficStats
from repro.mlsys.sparse import (
    DEFAULT_QUANTIZATION_SCALE,
    SparseTensorUpdate,
    SparseUpdate,
    from_key_value_pairs,
    sparsify,
    to_key_value_pairs,
)
from repro.mlsys.training import (
    DistributedTrainingJob,
    TrainingConfig,
    TrainingResult,
)
from repro.mlsys.worker import Worker

__all__ = [
    "Dataset",
    "SyntheticMnistSpec",
    "generate_synthetic_mnist",
    "pixel_activity_profile",
    "GradientUpdate",
    "SoftmaxModel",
    "softmax",
    "SGD",
    "Adam",
    "Optimizer",
    "make_optimizer",
    "OverlapSeries",
    "StepOverlap",
    "measure_step_overlap",
    "ParameterServer",
    "ServerTrafficStats",
    "DEFAULT_QUANTIZATION_SCALE",
    "SparseTensorUpdate",
    "SparseUpdate",
    "from_key_value_pairs",
    "sparsify",
    "to_key_value_pairs",
    "DistributedTrainingJob",
    "TrainingConfig",
    "TrainingResult",
    "Worker",
]
