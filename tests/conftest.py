import gzip
import json
import pathlib

import pytest

import lamptwist.reidemeister as reidemeister_module
from lamptwist import automorphism_from_dict, restriction_surjectivity

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def box_solver_systems():
    """(a, b, modulus) of every system the box solver poses on one block of a
    seeded verdict corpus (22 automorphisms, ranks 1-3, moduli 5 to 49)."""
    with gzip.open(GOLDEN / "box-solver-block.json.gz", "rt", encoding="utf-8") as fh:
        block = json.load(fh)
    systems = []
    solve = reidemeister_module.solve_linear

    def recording(a, b, modulus):
        systems.append((a, b, modulus))
        return solve(a, b, modulus)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reidemeister_module, "solve_linear", recording)
        for data in block:
            restriction_surjectivity(automorphism_from_dict(data))
    return systems
