"""Builtin groups and test curves.

Three small groups cover the interesting cases: a weighted abelian plane
(no brackets, so the group law is plain addition), the 3-d group with one
bracket [e1, e2] = e3, and its 4-d step-3 extension with [e1, e3] = e4.
The curves live in those groups and are chosen so that degrees, blow-ups
and covering values have values one can check by hand.  Each is a table
of polynomial coefficients on (-1, 1), made a curve by ``polynomial_curve``,
which derives the velocity, when it is first asked for, and kept for the
rest of the process like a constant: a command that uses no curve never
loads numpy, and none pays for a curve twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import TYPE_CHECKING

from .algebra import GradedAlgebraSpec, spec_from_dict, validate_algebra
from .group import GroupLaw, bch_group_law

if TYPE_CHECKING:
    from .curve import Curve
    from .metric import HomogeneousDistance

_GROUP_DOCS = {
    "abelian_w12": {
        "layers": [1, 1],
        "brackets": [],
    },
    "heisenberg": {
        "layers": [2, 1],
        "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"}],
    },
    "engel": {
        "layers": [2, 1, 1],
        "brackets": [{"i": 1, "j": 2, "k": 3, "c": "1"},
                     {"i": 1, "j": 3, "k": 4, "c": "1"}],
    },
}


def group_names() -> tuple:
    return tuple(sorted(_GROUP_DOCS))


def algebra_spec(name: str) -> GradedAlgebraSpec:
    if name not in _GROUP_DOCS:
        raise KeyError(f"unknown group {name!r}; choose from {group_names()}")
    return spec_from_dict(_GROUP_DOCS[name])


@lru_cache(maxsize=None)
def group_law(name: str) -> GroupLaw:
    return bch_group_law(validate_algebra(algebra_spec(name)))


def distance(name: str, eps=None) -> HomogeneousDistance:
    """Gauge distance for a builtin group; eps defaults to all ones."""
    from .metric import HomogeneousDistance
    law = group_law(name)
    if eps is None:
        eps = (1.0,) * law.step
    return HomogeneousDistance(law, eps)


# -- curves ---------------------------------------------------------------------


@dataclass(frozen=True)
class CurveFixture:
    group: str
    curve: Curve


# name: group, one coefficient table per piece (row k holds the coefficients
# of t^k), the breaks between the pieces, description
_TABLES = {
    "vertical": ("heisenberg", ([[0, 0, 0], [0, 0, 1]],), (),
                 "line along the center direction; degree 2 everywhere"),
    "horizontal": ("heisenberg", ([[0, 0, 0], [1, 0, 0]],), (),
                   "line along the first generator; degree 1 everywhere"),
    "rotated_horizontal": ("heisenberg", ([[0, 0, 0], [1 / sqrt(2), 1 / sqrt(2), 0]],), (),
                           "unit-speed line along (e1 + e2)/sqrt(2); degree 1 everywhere"),
    "parabola_lift": ("heisenberg", ([[0, 0, 0], [1, 0, 0], [0, 0, 0.5]],), (),
                      "lift t -> (t, 0, t^2/2); degree 2 except at t = 0"),
    "glued_hv": ("heisenberg", ([[0, 0, 0], [1, 0, 0], [0, 0, 0]],
                                [[0, 0, 0], [1, 0, 0], [-0.5, 0, 0.5]]), (0.0,),
                 "C1 join of a horizontal ray (t <= 0) and a bending arc (t > 0); "
                 "degree 1 exactly on [-1, 0]"),
    "engel_vertical": ("engel", ([[0, 0, 0, 0], [0, 0, 0, 1]],), (),
                       "line along the top layer of the step-3 group; degree 3 everywhere"),
}

_CURVES = {}    # name -> CurveFixture, built on first use


def curve_names() -> tuple:
    return tuple(sorted(_TABLES))


def curve_fixture(name: str) -> CurveFixture:
    if name not in _TABLES:
        raise KeyError(f"unknown curve {name!r}; choose from {curve_names()}")
    if name not in _CURVES:
        from .curve import polynomial_curve
        group, pieces, breaks, description = _TABLES[name]
        table = [[*zip(*rows)] for rows in zip(*pieces)]    # the pieces on the last axis
        _CURVES[name] = CurveFixture(group, polynomial_curve(
            table, (-1.0, 1.0), breaks, name=name, description=description))
    return _CURVES[name]


def curve(name: str) -> Curve:
    return curve_fixture(name).curve


def catalog() -> dict:
    """Serializable listing of the builtin groups and curves."""
    groups = {name: {"layers": list(doc["layers"]),
                     "brackets": len(doc["brackets"])}
              for name, doc in sorted(_GROUP_DOCS.items())}
    curves = {name: {"group": group, "domain": [-1.0, 1.0], "description": description}
              for name, (group, _, _, description) in sorted(_TABLES.items())}
    return {"groups": groups, "curves": curves}
