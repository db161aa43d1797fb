"""Shared fixtures, and helpers that only the tests use (import them with
``from conftest import ...``)."""

import numpy as np
import pytest

from dsh_lab.dsh_model import Element, FiniteDshModel, Level, ModelPoint, PointRef
from dsh_lab.matrixkit import Permutation, matrix_to_json, perm_matrix


def zero_element(m: FiniteDshModel) -> Element:
    return Element(m, {r: np.zeros((m.dim(r.level),) * 2, dtype=np.complex128)
                       for r in m.free_refs()})


def model_from_json(obj: dict) -> FiniteDshModel:
    levels = []
    for lvl in obj["levels"]:
        pts = []
        for p in lvl["points"]:
            gluing = None
            if p["glued"]:
                gluing = tuple(PointRef(r["level"], r["point"]) for r in p["gluing"])
            pts.append(ModelPoint(p["id"], gluing))
        levels.append(Level(int(lvl["dim"]), tuple(pts)))
    return FiniteDshModel(tuple(levels))


def cycle_power_ref(n: int, N: int) -> np.ndarray:
    """U[gamma_{1,n}]^N from its definition: j -> ((j-1+N) mod n) + 1."""
    return perm_matrix(Permutation(tuple((j - 1 + N) % n + 1 for j in range(1, n + 1))))


def strip_timing(obj):
    """A JSON report without its ``runtime_ms`` fields."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def element_to_json(e: Element) -> dict:
    return {
        "values": {
            f"{r.level}/{r.point}": matrix_to_json(v)
            for r, v in sorted(e.values.items())
        }
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_level_model():
    """Level 1: free points a, b (dim 3). Level 2: glued g = (a, b), free c (dim 6)."""
    return FiniteDshModel((
        Level(3, (ModelPoint("a"), ModelPoint("b"))),
        Level(6, (
            ModelPoint("g", (PointRef(1, "a"), PointRef(1, "b"))),
            ModelPoint("c"),
        )),
    ))


@pytest.fixture
def three_level_model():
    """Adds a level 3 glued point referencing free points two levels down."""
    return FiniteDshModel((
        Level(3, (ModelPoint("a"), ModelPoint("b"))),
        Level(6, (
            ModelPoint("g", (PointRef(1, "a"), PointRef(1, "b"))),
            ModelPoint("c"),
        )),
        Level(9, (
            ModelPoint("h", (PointRef(2, "c"), PointRef(1, "a"))),
            ModelPoint("d"),
        )),
    ))
