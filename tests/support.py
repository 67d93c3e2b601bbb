"""Helpers shared by more than one test module."""

from __future__ import annotations

import json

from stratakit.corpus import corpus_index, fixture_bytes
from stratakit.homological import ext_dim
from stratakit.specfile import AlgebraSpec, parse_spec


def load_fixture(name: str) -> AlgebraSpec:
    """The parsed spec of the bundled fixture called ``name`` (as in the
    corpus index, e.g. ``FIX-A3``)."""
    for entry in corpus_index():
        if entry.name == name:
            data = json.loads(fixture_bytes(entry.file))
            return parse_spec(data, name=entry.name)
    raise KeyError(f"no bundled fixture named {name}")


def is_injective(f) -> bool:
    """Mono read off the rank, as ``exact_at(..., mono=True)`` reads it."""
    return f.rank() == f.source.dim


def bs_vanishing_table(s, eps: dict[str, str], max_degree: int) -> dict[tuple[str, str, int], int]:
    """dim Ext^n(std_eps(b), costd_eps(b')) for all pairs and 0 <= n <= max_degree."""
    fams = s.standard_objects()
    table: dict[tuple[str, str, int], int] = {}
    for b in s.algebra.vertex_names:
        for c in s.algebra.vertex_names:
            delta = fams[b].eps_standard(eps[s.rho[b]])
            nabla = fams[c].eps_costandard(eps[s.rho[c]])
            for n in range(max_degree + 1):
                table[(b, c, n)] = ext_dim(delta, nabla, n)
    return table
