"""Loaders for the packaged configuration data.

The data directory ships modulus sets, addition chains, split-multiplication
formula matrices and active-volume weights.  ``BINSHOR_DATA`` overrides the
directory, so alternative configurations can be swapped in without touching
the package.
"""

from __future__ import annotations

import os
from pathlib import Path

from .gf2 import GF2Error, ModulusSet, data_lines, parse_modulus_set

_PKG_DATA = Path(__file__).parent / "data"


def data_dir() -> Path:
    override = os.environ.get("BINSHOR_DATA")
    return Path(override) if override else _PKG_DATA


def _read(relpath: str) -> str:
    path = data_dir() / relpath
    if not path.exists():
        raise FileNotFoundError(f"missing data file: {path}")
    return path.read_text()


def load_modulus_set(n: int) -> ModulusSet:
    """Standard sets for the named fields, toy sets for small test fields."""
    path = data_dir() / f"modsets/{n}.txt"
    toy = data_dir() / f"modsets/toy{n}.txt"
    for p in (path, toy):
        if p.exists():
            return parse_modulus_set(p.read_text())
    raise FileNotFoundError(f"no modulus set for n = {n}: tried {path} and {toy}")


def load_inner_modulus_set(d: int) -> ModulusSet:
    """Modulus set for the recursive multiplier handling a degree-d factor."""
    return parse_modulus_set(_read(f"modsets/inner{d}.txt"))


def load_chain(n: int):
    """Addition chain for field size n from the chains table."""
    from .synth import AdditionChain

    for line in data_lines(_read("chains.txt")):
        parts = line.split()
        if int(parts[0]) == n:
            return AdditionChain(tuple(int(t) for t in parts[1:]))
    raise GF2Error(f"no addition chain for n = {n}")


def load_formula(d: int):
    from .formulas import KaratsubaFormula

    return KaratsubaFormula.from_text(_read(f"formulas/d{d}.txt"), source=f"d{d}.txt")


def load_av_weights() -> dict[str, float]:
    out = {}
    for line in data_lines(_read("av_weights.txt")):
        key, val = line.split("=")
        out[key.strip()] = float(val)
    return out
