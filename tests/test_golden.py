"""Golden regression: round-loop histories and answers must not change.

``tests/data/golden_rounds.json`` holds the ``run_crowdsourcing`` history
and answers of TDH × {EAI, QASCA, ME} on ``birthplaces_lite(sf=0.05,
seed=0)`` (3 rounds, seed 0). Refactors of the TDH engine or the
assigners must reproduce it exactly, floats included. To regenerate it
after an intended change of results::

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import pathlib
import re

import pytest

from repro.datagen.truthdata import birthplaces_lite
from repro.eval.simulate import run_crowdsourcing

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "golden_rounds.json"
ASSIGNERS = ("EAI", "QASCA", "ME")


def _run(assign: str) -> dict:
    log = run_crowdsourcing(
        birthplaces_lite(sf=0.05, seed=0), "TDH", assign, rounds=3, seed=0
    )
    return {
        "history": log.history.to_dict("records"),
        "answers": log.answers.to_numpy().tolist(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("assign", ASSIGNERS)
def test_round_loop_matches_golden(golden, assign):
    got = json.loads(json.dumps(_run(assign)))
    assert got["answers"] == golden[assign]["answers"]
    assert got["history"] == golden[assign]["history"]


if __name__ == "__main__":
    text = json.dumps({a: _run(a) for a in ASSIGNERS}, indent=1)
    # one line per history record and per answer
    text = re.sub(r"[\[{][^\[\]{}]*[\]}]", lambda m: re.sub(r"\n\s*", " ", m.group()), text)
    GOLDEN.write_text(text + "\n")
