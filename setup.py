"""Legacy setup shim so `pip install -e .` works offline (no wheel package)."""
import re
from pathlib import Path

from setuptools import setup

# Read, not imported: importing the package would need its dependencies.
INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    install_requires=["numpy", "scipy"],
)
