"""Shared fixtures for the paper-shape benches.

Every ``bench_*.py`` here maps to one experiment in DESIGN.md's
per-experiment index (E1-E15) and reproduces a *shape* the paper
predicts — an ordering, a knee, a growth rate — on a handful of
operations over shallow state, mostly in simulated time.  They are
shapes, not performance evidence: throughput, latency and speed-up
figures come from ``benchmarks/e2e/run.py`` only (see
``benchmarks/e2e/README.md``).  Benches print their tables to stdout
(``pytest benchmarks/ --benchmark-only -s``); the shapes are recorded
in EXPERIMENTS.md.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro.crypto.paillier import generate_paillier_keypair
from repro.crypto.rsa import generate_rsa_keypair


@pytest.fixture(scope="session")
def paillier_keys():
    return generate_paillier_keypair(256)


@pytest.fixture(scope="session")
def rsa_keys():
    return generate_rsa_keypair(512)
