"""Package metadata for the ``repro`` library (``src/`` layout).

This file is the only packaging metadata.  Nothing needs installing to
run the library, tests or examples in place (``PYTHONPATH=src``); for an
editable install, including offline environments without the ``wheel``
package::

    pip install -e . --no-build-isolation
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The fast backend compiles its native iteration body from this
    # source on first use (repro/decoder/backends/native.py).
    package_data={"repro.decoder.backends": ["*.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
)
