import sys
from pathlib import Path

# The benchmark's self-tests import the package from this checkout's source.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
