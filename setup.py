"""Legacy setup shim: this environment's pip lacks the `wheel` package, so
PEP-517 editable installs fail; plain `pip install -e .` works through this."""
from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Search + Seizure: The Effectiveness of "
        "Interventions on SEO Campaigns' (IMC 2014)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)
