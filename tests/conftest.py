import logging
from pathlib import Path

import numpy as np
import pytest

from tkgd.cli import _keep_freed_heap
from tkgd.graph import Vocabulary, generate_synthetic, load_quadruples

FIXTURES = Path(__file__).parent / "fixtures"

logging.getLogger("tkgd").setLevel(logging.ERROR)

# the allocator settings tkgd's command line applies to its process; they change speed, not results
_keep_freed_heap()


@pytest.fixture
def mini_dataset():
    return load_quadruples(FIXTURES / "mini")


@pytest.fixture
def small_synth():
    """12 entities, 3 relations, mostly rule-following; fast to train on."""
    return generate_synthetic(12, 3, 5, 80, 0.9, seed=7)


@pytest.fixture
def tiny_vocab():
    return Vocabulary(
        entity_names=["e0", "e1", "e2", "e3"],
        relation_names=["r0", "r1"],
        time_buckets=[1900, 1910],
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
