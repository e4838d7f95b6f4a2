"""SHA-256 of the march and the Newton search of ``array_digests.reads_du``
with its field declared free of x, at 48 nodes, one line each: at an even
node count such a field is evaluated on the two mirrored halves of the
nodes (README, "Numerical notes"), and so is its u' fold.  No catalogue
field reads u', so no experiment file reaches that fold.

``regenerate.py`` digests this script's stdout as one more case entry.
Run it from the root of a source checkout:

    PYTHONPATH=src python tests/golden/split_du_digests.py
"""

from __future__ import annotations

import runpy
from pathlib import Path

if __name__ == "__main__":
    arrays = runpy.run_path(str(Path(__file__).with_name("array_digests.py")))
    print("\n".join(arrays["reads_du"](nodes=48, reads_x=False, tag="x-free reads_du")))
