"""Shared fixtures, and helpers that only the tests use (import them with
``from conftest import ...``)."""

import numpy as np
import pytest

from dsh_lab.dsh_model import Element, FiniteDshModel, Level, ModelPoint, PointRef
from dsh_lab.matrixkit import Permutation, is_unitary, matrix_to_json, perm_matrix
from dsh_lab.unitary_paths import condense_path, v_n


def zero_element(m: FiniteDshModel) -> Element:
    return Element(m, {r: np.zeros((m.dim(r.level),) * 2, dtype=np.complex128)
                       for r in m.free_refs()})


def unit_element(m: FiniteDshModel) -> Element:
    return Element(m, {r: np.eye(m.dim(r.level), dtype=np.complex128)
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


def assert_permutation_index(p: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Assert that the index p is a permutation whose 0/1 matrix U, with
    U[i, p[i]] = 1, is exactly ``want`` and unitary with no slack; return U."""
    assert np.array_equal(np.sort(p), np.arange(len(p)))
    u = np.zeros((len(p), len(p)), dtype=np.complex128)
    u[np.arange(len(p)), p] = 1.0
    assert np.array_equal(u, want) and is_unitary(u, 0.0)
    return u


def condensation_matrix(n: int, M: int, N: int) -> np.ndarray:
    """The pipeline's V3 at a free point of dimension n, built densely: the
    condensation block at the point's one block start, the identity after."""
    v = np.eye(n, dtype=np.complex128)
    v[:N * M, :N * M] = condense_path(N * M, tuple(1 + a * M for a in range(N)))(1.0)
    return v


def triangulating_matrix(n: int, N: int) -> np.ndarray:
    """The pipeline's V4 at a free point of dimension n: v_n of the
    indicator's theta, whose one 1 sits at the point's one block start."""
    theta = np.zeros(n)
    theta[0] = 1.0
    return v_n(theta, N)


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
