"""Tests of the benchmark itself; from the repository root run
``PYTHONPATH=src python3 -m pytest perfbench/tests -q``."""
