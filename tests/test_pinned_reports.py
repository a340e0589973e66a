"""Byte-for-byte pins of criterion-6 oracle reports.

``tests/data/pinned_reports.jsonl`` holds one sorted-key
``verify_clips(a, b, samples=200, seed=0).to_json()`` line per cell: every
7th cell of criterion 6's sweep order, then the four heaviest cells.  A
change that speeds up the oracle must leave each report as it was, witness
frames included.  Regenerate the file, only on purpose, with

    PYTHONPATH=src python tests/test_pinned_reports.py

``SWEEP_SHA256`` pins every report of the sweep at three seeds: the sha256
of its sorted-key JSON lines, each ended by a newline, in sweep order.
"""

import hashlib
import json
import pathlib

import pytest

from isoclips import ICO, OCTA, OCTA_MINUS, TETRA, TRIV, cyclic, d_h, d_v, dihedral, z_minus

DATA = pathlib.Path(__file__).parent / "data" / "pinned_reports.jsonl"
SAMPLES, SEED = 200, 0
SWEEP_SHA256 = {
    0: "17f974c487c89b2fb4936cbc098a27f1197ccfdfb7b08f662bfedfd0e7c85a15",
    1: "b6c4d41220656a7fc124780cfedce89046da63a5ee31817abe73a870b0642803",
    2: "ade3feb30f967038212b833696e106a26c2d26dcfcbdb9484e365bc53bef4002",
}


def _sweep():
    """Criterion 6's 1225 cells, in its sweep order."""
    classes = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
    classes += [cyclic(n) for n in range(2, 13)]
    classes += [dihedral(n) for n in range(2, 13)]
    classes += [z_minus(p) for p in range(2, 13, 2)]
    classes += [d_v(n) for n in range(2, 13)]
    classes += [d_h(p) for p in range(4, 13, 2)]
    return [(a, b) for i, a in enumerate(classes) for b in classes[i:]]


def _cells():
    heaviest = [(ICO, ICO), (OCTA, ICO), (TETRA, ICO), (dihedral(11), dihedral(12))]
    return _sweep()[::7] + heaviest


def _line(a, b, seed=SEED) -> str:
    from isoclips.oracle import verify_clips

    return json.dumps(verify_clips(a, b, samples=SAMPLES, seed=seed).to_json(), sort_keys=True)


_PINNED = DATA.read_text().splitlines() if DATA.exists() else []


@pytest.mark.parametrize("index", range(len(_cells())))
def test_report_is_byte_identical(index):
    a, b = _cells()[index]
    assert _line(a, b) == _PINNED[index], f"{a} o {b}"


@pytest.mark.parametrize("seed", sorted(SWEEP_SHA256))
def test_sweep_digest(seed):
    sweep = _sweep()
    assert len(sweep) == 1225
    text = "".join(_line(a, b, seed) + "\n" for a, b in sweep)
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_SHA256[seed]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("".join(_line(a, b) + "\n" for a, b in _cells()))
    print(f"wrote {len(_cells())} reports to {DATA}")
