"""Setup shim for environments without PEP 517 build isolation.

The canonical metadata lives in ``pyproject.toml``; this file only enables
``pip install -e . --no-use-pep517`` on offline machines that lack the
``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "OISA: Optical In-Sensor Accelerator for Efficient Visual Computing "
        "(DATE 2024) — full-system reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy>=1.10"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
