"""Setuptools shim.

This file exists so that ``pip install -e .`` works in fully offline
environments where the ``wheel`` package (needed by the PEP 517
editable-install path) is unavailable — pip then falls back to the legacy
``setup.py develop`` code path.
"""

from setuptools import setup

setup()
