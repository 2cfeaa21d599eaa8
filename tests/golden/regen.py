"""Rewrite every golden of ``tests/test_golden.py`` from the current tree.

Run it only in a change that moves an output on purpose, and name in that
change's CHANGES.md entry each golden that moved and by how much.  It prints
the name of each golden whose content changed or that it deleted, one a line:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import GOLDEN, run_all  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        outputs = run_all(Path(workdir))
    for stale in GOLDEN.glob("*.json"):
        if stale.stem not in outputs:
            stale.unlink()
            print(stale.stem)
    for name, golden in outputs.items():
        path, text = GOLDEN / f"{name}.json", json.dumps(golden, sort_keys=True, indent=1) + "\n"
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            print(name)


if __name__ == "__main__":
    main()
