import random

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=20240801,
        help="seed for the randomized property tests",
    )


@pytest.fixture
def rng(request):
    return random.Random(request.config.getoption("--seed"))
