"""The public pipeline: configuration, orchestration, results."""

from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    PipelineResult,
    ProteinFamilyPipeline,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "ProteinFamilyPipeline",
]
