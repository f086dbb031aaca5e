"""Setuptools configuration.

Kept as ``setup.py`` (rather than PEP 621 metadata) so that
``pip install -e .`` works on minimal environments that lack the ``wheel``
package (PEP 660 editable installs need it; the legacy ``setup.py develop``
path does not).  Tool configuration (ruff) lives in ``pyproject.toml``.

The package itself runs on the standard library alone, so it has no
runtime dependencies.  The dependency extras below are the single source of
truth for every CI job: ``pip install -e .[test]`` replaces the hand-rolled
per-job package lists the workflows used to carry.  scipy and networkx are
test oracles only: the suite checks the stdlib Student-t quantile and the
topology's connectivity queries against them.  No pytest plugin is needed:
the figure benchmarks time nothing, and ``perfbench/`` times the sweeps.
"""

from setuptools import find_packages, setup

setup(
    name="repro-essat",
    version="0.4.0",
    description=(
        "Reproduction of ESSAT (Chipara, Lu, Roman; ICDCS 2005): "
        "energy-synchronized communication for sensor networks"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        # Everything the tier-1 suite imports, figure benchmarks included.
        "test": [
            "pytest",
            "hypothesis",
            "networkx",
            "scipy",
        ],
        # Tooling used by the CI `lint` (ruff) and `mypy` jobs.
        "lint": [
            "ruff",
            "mypy",
        ],
    },
)
