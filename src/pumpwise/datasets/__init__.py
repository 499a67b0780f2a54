"""Bundled example graphs.

``conv2d.json`` reproduces the published 2D-convolution numbers exactly.
``optical.json`` and ``vms.json`` carry synthesized operation counts and
are illustrative only; their shapes and clock ranges are realistic but
their per-task characterization is not measured data.
"""

from pathlib import Path

_ROOT = Path(__file__).parent


def names() -> list[str]:
    """Bundled dataset file names."""
    return sorted(p.name for p in _ROOT.iterdir() if p.name.endswith(".json"))


def path(name: str) -> Path:
    """Filesystem path of a bundled dataset."""
    p = _ROOT / name
    if not p.is_file():
        raise FileNotFoundError(f"no bundled dataset named {name!r}; available: {names()}")
    return p
