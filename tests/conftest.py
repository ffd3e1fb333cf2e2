"""Shared fixtures: small synthetic data sets reused across test modules."""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from repro.align.matrices import blosum62_scheme
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.parallel.simulator import VirtualCluster
from repro.runtime import ProcessBackend, SerialBackend, phases
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.shingle.algorithm import ShingleParams

# The tier-1 suite is a gate, and a gate must not draw fresh random
# examples on every run: property tests derive their examples from the
# test itself.  `--hypothesis-profile=default` (hypothesis's own flag;
# the CI coverage job passes it) brings random exploration back.
settings.register_profile("gate", derandomize=True)
settings.load_profile("gate")

# Lint fixtures are parsed by `repro lint`, never imported.
collect_ignore = ["lint_fixtures"]


@pytest.fixture(scope="session")
def small_metagenome():
    """~60 sequences, 5 families, with redundancy and noise."""
    spec = MetagenomeSpec(
        n_families=5,
        mean_family_size=8,
        mean_length=120,
        length_stddev=25,
        redundant_fraction=0.12,
        noise_fraction=0.08,
        seed=1234,
    )
    return generate_metagenome(spec)


@pytest.fixture(scope="session")
def tiny_metagenome():
    """~20 sequences, 3 families — for the slowest integration paths."""
    spec = MetagenomeSpec(
        n_families=3,
        mean_family_size=6,
        mean_length=90,
        length_stddev=15,
        redundant_fraction=0.10,
        noise_fraction=0.05,
        seed=77,
    )
    return generate_metagenome(spec)


@pytest.fixture(scope="session")
def domain_metagenome():
    """Domain-style families for the B_m reduction tests."""
    spec = MetagenomeSpec(
        n_families=4,
        mean_family_size=6,
        mean_length=140,
        domain_family_fraction=1.0,
        redundant_fraction=0.0,
        noise_fraction=0.1,
        fragment_fraction=0.0,
        seed=555,
    )
    return generate_metagenome(spec)


@pytest.fixture(scope="session")
def serial_session():
    """``open(sequences) -> (backend, None)``: a SerialBackend with an
    open session over ``sequences``, and the ``cache`` argument every
    ``repro.runtime.phases.backend_*`` entry point takes and ignores —
    how a test runs one phase of the reference on its own.  Sessions
    are closed when the test session ends."""
    with contextlib.ExitStack() as stack:

        def open_session(sequences):
            scheme = blosum62_scheme()
            backend = SerialBackend()
            stack.enter_context(backend.session(sequences, scheme))
            return backend, None

        yield open_session


class SmallTaskProcessBackend(ProcessBackend):
    """Two workers, under an RR driver that submits 4 pairs at a time
    (``phases.RR_CHUNK`` for the session), so RR on a small input runs
    many tasks on both workers.  ``phases.LOCAL_CHUNK`` stays: it also
    sizes CCD's speculative batches, whose re-decided count the modes
    must share with the default run."""

    @contextlib.contextmanager
    def session(self, sequences, scheme):
        with mock.patch.object(phases, "RR_CHUNK", 4), \
                super().session(sequences, scheme) as backend:
            yield backend


#: Every way to run the pipeline; "default" is what the others must equal.
PIPELINE_MODES = {
    "default": lambda: {},
    "serial": lambda: {"backend": "serial"},
    "process": lambda: {"backend": SmallTaskProcessBackend(workers=2)},
    **{
        f"sim-p{p}": lambda p=p: {
            "cluster": VirtualCluster(p),
            "dsd_cluster": VirtualCluster(max(p // 2, 1)),
        }
        for p in (1, 4, 8)
    },
}


@pytest.fixture(scope="session")
def mode_workload(tiny_metagenome):
    config = PipelineConfig(
        shingle=ShingleParams(s1=3, c1=40, s2=3, c2=13),
        min_component_size=4,
        min_subgraph_size=4,
    )
    return tiny_metagenome.sequences, config


@pytest.fixture(scope="session")
def mode_results(mode_workload):
    """One pipeline run per execution mode, same input and config."""
    sequences, config = mode_workload
    return {
        mode: ProteinFamilyPipeline(config).run(sequences, **kwargs())
        for mode, kwargs in PIPELINE_MODES.items()
    }


def random_protein(rng: np.random.Generator, length: int) -> np.ndarray:
    """Uniform random encoded protein, for property tests."""
    return rng.integers(0, 20, size=length).astype(np.uint8)
