"""The seeded generators' draws, pinned.  Every seeded test reads its inputs
from these generators, so a change to what a seed draws changes what those
tests check.  Each digest is the SHA-256 of 1,000 draws from ``Random(35)``:
models as their documents with sorted keys, formulas as printed, and ifom
structures as a canonical tuple."""

import hashlib
import json
import random

import pytest

from imodal.docio import model_to_doc
from imodal.search import SearchBounds
from imodal.syntax import show

from generators import (_random_upset, random_cnm, random_coherent_inm, random_formula,
                        random_ifom, random_inm, random_poset)

# a diamond: 0 below 1 and 2, both below 3
_DIAMOND = frozenset({(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3),
                      (1, 3), (2, 3)})


def _doc(model) -> str:
    return json.dumps(model_to_doc(model), sort_keys=True)


def _canon_ifom(s) -> tuple:
    return (sorted(s.worlds), sorted(s.leq), [
        (w, sorted(m.states), sorted(m.nbhds), sorted(m.relN),
         sorted(m.relE), sorted((i, sorted(p)) for i, p in m.preds.items()))
        for w, m in sorted(s.interp.items())])


DRAWS = {
    "random_poset": lambda rng: sorted(random_poset(rng, 4)),
    "_random_upset": lambda rng: sorted(_random_upset(rng, range(4), _DIAMOND)),
    "random_inm": lambda rng: _doc(random_inm(rng, SearchBounds(4, 2, 2))),
    "random_coherent_inm": lambda rng: _doc(random_coherent_inm(rng, SearchBounds(3, 2, 1))),
    "random_cnm": lambda rng: _doc(random_cnm(rng, SearchBounds(3, 2, 2))),
    "random_ifom": lambda rng: _canon_ifom(random_ifom(rng, 3, 2, 2, 1)),
    "random_formula": lambda rng: show(random_formula(rng, 3, 2)),
    "random_formula_nabla": lambda rng: show(random_formula(rng, 3, 2, "nabla")),
}

DIGESTS = {
    "random_poset":
        "cb3cb8c4d4691ab996d9ab8d29d98943fc563206f0d81ef0563a823371170e50",
    "_random_upset":
        "75f8b3046c9b2eac2f61aff2232fd7574578a65cb1e92d388758024e98bd9231",
    "random_inm":
        "cf592206c56c9ccc2908da26f692c209a996d97b52f558812f2adb31ccfd8b39",
    "random_coherent_inm":
        "be91456b8cf45f7c942af2216b633fcdd26ccca550a2f8d5c305497339f5b6cc",
    "random_cnm":
        "3f5cd739301d8c83668910e9ba70c5f45e89391198d2b553811661019d665a75",
    "random_ifom":
        "57e05a3a5d384fd59285a7695c74b10265765dd50263ba4f3f33137a4b65100a",
    "random_formula":
        "d9a31f3112eb371cd047768f3bc35c3da30b0c41fc668d0e29aa852b37e37c90",
    "random_formula_nabla":
        "ad8d1542a55d88b0b928b6cec7116e1823f6e882847b557ad381201073fa8fe9",
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_draws_pinned(name):
    rng = random.Random(35)
    draws = [DRAWS[name](rng) for _ in range(1000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == DIGESTS[name]
