"""Reversible embeddings of irreversible Boolean functions.

The package turns a multi-output PLA description into a reversible
characteristic function with provably few extra circuit lines: it counts
the garbage outputs a function really needs, rewrites the PLA into
disjoint cubes, and builds the embedding as a BDD that downstream
synthesis can consume.
"""
from __future__ import annotations

from importlib.resources import files as _files
from pathlib import Path

from .bdd import Func, Manager, and_all, or_all
from .benchgen import redundancy, restricted_growth
from .cube import Cube, cube_and, cube_sharp
from .dsop import compact, dsop, post_compact
from .embedding import (
    RcBdd,
    VerifyReport,
    complete_offset,
    embed_bennett,
    embed_exact,
    ordering_comparison,
    to_extended_pla,
    verify,
)
from .errors import PlaError, ResourceLimitError
from .linecount import (
    METHOD_BRUTE,
    METHOD_EXACT_BDD,
    METHOD_EXACT_CUBE,
    METHOD_HEURISTIC_CUBE,
    LineReport,
    ceil_log2,
    exact_mu_bdd,
    exact_mu_cube,
    heuristic_mu,
    upper_bound_total,
)
from .pla import Pla, characteristic, parse_pla, to_functions, write_pla

__version__ = "0.1.0"

__all__ = [
    "Cube",
    "Func",
    "LineReport",
    "Manager",
    "METHOD_BRUTE",
    "METHOD_EXACT_BDD",
    "METHOD_EXACT_CUBE",
    "METHOD_HEURISTIC_CUBE",
    "Pla",
    "PlaError",
    "RcBdd",
    "ResourceLimitError",
    "VerifyReport",
    "and_all",
    "brute_dsop_check",
    "brute_mu",
    "brute_verify",
    "ceil_log2",
    "characteristic",
    "compact",
    "complete_offset",
    "cube_and",
    "cube_sharp",
    "data_path",
    "dsop",
    "embed_bennett",
    "embed_exact",
    "exact_mu_bdd",
    "exact_mu_cube",
    "heuristic_mu",
    "or_all",
    "ordering_comparison",
    "parse_pla",
    "post_compact",
    "redundancy",
    "restricted_growth",
    "schema_path",
    "to_extended_pla",
    "to_functions",
    "upper_bound_total",
    "verify",
    "write_pla",
]


# served by __getattr__, so that only their callers import numpy
_ORACLE = ("brute_dsop_check", "brute_mu", "brute_verify")


def __getattr__(name: str):
    """The brute-force oracle's entry points, imported on first use (PEP
    562): the oracle enumerates with numpy, which nothing else needs."""
    if name in _ORACLE:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def data_path(name: str) -> Path:
    """Path to one of the PLA files shipped with the package."""
    return Path(str(_files("revembed").joinpath("data", name)))


def schema_path(name: str) -> Path:
    """Path to one of the JSON schemas describing the CLI's output."""
    return Path(str(_files("revembed").joinpath("schemas", name)))
