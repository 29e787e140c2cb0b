import copy

import pytest

from spinharm import homogeneous
from spinharm.homogeneous import load_model


@pytest.fixture(autouse=True)
def fresh_builtin_models():
    """Each test starts with no shared built-in model, hence no kept
    analysis, and an empty slot table: a test that monkeypatches the
    pipeline sees it run, and leaves no model or slot record built under
    its patch to the next test."""
    homogeneous._builtin_model.cache_clear()
    homogeneous._SLOTS.clear()
    yield
    homogeneous._builtin_model.cache_clear()
    homogeneous._SLOTS.clear()


S5_STR = ["0", "0", "0", "0", "1", "0", "0", "0"]


@pytest.fixture
def flat6_dict():
    return {
        "name": "flat6", "n": 6, "substitution": "t=u",
        "spinor": list(S5_STR),
        "lambda": [[] for _ in range(6)],
        "notes": "zero Wang map (flat toy)",
    }


@pytest.fixture
def flat7_dict():
    return {
        "name": "flat7", "n": 7, "substitution": "t=u",
        "spinor": list(S5_STR),
        "lambda": [[] for _ in range(7)],
        "notes": "",
    }


@pytest.fixture
def g2_toy_dict():
    """aw11 with slot 1 perturbed by t times slot 2: div S has root t = 1/2."""
    base = load_model("aw11").to_dict()
    d = copy.deepcopy(base)
    d["name"] = "g2toy"
    extra = copy.deepcopy(base["lambda"][1])
    for ent in extra:
        ent["coeff"] = f"({ent['coeff']})*t"
    d["lambda"][0] = d["lambda"][0] + extra
    d["notes"] = "synthetic perturbation with a genuine harmonicity root"
    return d


@pytest.fixture
def eta_toy_dict():
    """Single slot t*(e56+e35+e46): eta != 0 and chi^S != 0."""
    return {
        "name": "etatoy", "n": 6, "substitution": "t=u",
        "spinor": list(S5_STR),
        "lambda": [
            [{"i": 5, "j": 6, "coeff": "t"},
             {"i": 3, "j": 5, "coeff": "t"},
             {"i": 4, "j": 6, "coeff": "t"}],
            [], [], [], [], [],
        ],
        "notes": "sign fixture for the chi term",
    }
