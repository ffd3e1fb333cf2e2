"""The public pipeline: configuration, orchestration, results."""

from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    PhaseTimings,
    PipelineResult,
    ProteinFamilyPipeline,
)

__all__ = [
    "PipelineConfig",
    "PhaseTimings",
    "PipelineResult",
    "ProteinFamilyPipeline",
]
