"""Make the benchmark's modules importable and pin its environment."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

run.prepare_environment()
