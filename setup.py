"""Legacy setup shim.

The environment has no ``wheel`` package available offline, so editable
installs go through the classic ``setup.py develop`` path.  The shim
declares no metadata (there is no ``pyproject.toml``; setuptools reports
the distribution as ``UNKNOWN 0.0.0``).  The library needs no install:
run it from a checkout with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
