"""groundcap: an attention-LSTM image captioner whose object features are
grounded in the caption word-embedding space, with caption metrics and
embedding-space structure analysis."""

__version__ = "0.1.0"

from .autodiff import Tensor, backward, parameter
from .errors import (
    ConfigError,
    ContractError,
    DataValidationError,
    DegenerateStatisticsError,
    DomainError,
    GroundcapError,
    NumericalError,
    ShapeError,
)

__all__ = [
    "Tensor",
    "backward",
    "parameter",
    "GroundcapError",
    "ShapeError",
    "DomainError",
    "DegenerateStatisticsError",
    "ContractError",
    "ConfigError",
    "DataValidationError",
    "NumericalError",
    "__version__",
]
