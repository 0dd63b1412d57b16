"""Packaging for the T-Crowd reproduction.

Installs the ``repro`` package from ``src/`` and the ``tcrowd-experiments``
command (``repro.experiments.cli:main``).  ``pip install -e .`` makes an
editable install; where pip cannot build one (an offline machine without
the ``wheel`` package), ``python setup.py develop`` does the same, and
``PYTHONPATH=src`` runs everything without installing.
"""

import pathlib
import re

from setuptools import find_packages, setup

_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8")).group(1)

setup(
    name="tcrowd-repro",
    version=VERSION,
    description=(
        "T-Crowd (ICDE 2018): truth inference and task assignment for "
        "tabular crowdsourcing, with a crowd-serving HTTP service"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": ["tcrowd-experiments = repro.experiments.cli:main"],
    },
)
