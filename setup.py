"""Packaging for the BlissCam reproduction (pure-numpy, src layout)."""

from setuptools import find_packages, setup

setup(
    name="blisscam-repro",
    version="1.0.0",  # keep in sync with repro.__version__
    description=(
        "Reproduction of BlissCam (ISCA'24): in-sensor eventified ROI "
        "sampling for ultra-low-power eye tracking, with a staged "
        "execution engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ]
    },
)
