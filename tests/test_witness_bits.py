"""The classifier corpus's certificates, bit for bit.

The zero test's absolute-value scale sets each sample's threshold, and the
thresholds pick the witness, so the exact bits of every witness value, witness
coordinate and valid fraction guard that whole chain.  ``golden/witness_bits.json``
holds them as ``float.hex``; refresh it only for an intended change of the
zero test:

    PYTHONPATH=src python tests/test_witness_bits.py
"""

import json
from pathlib import Path

import pytest

from expandlab.degeneracy import classify
from expandlab.expr import FunctionSpec, parse

GOLDEN = Path(__file__).with_name("golden") / "witness_bits.json"

BOX2 = ((0.5, 1.5), (0.5, 1.5))
BOX3 = ((0.5, 1.5),) * 3

# the acceptance suite's 16-function classifier corpus
CORPUS = [
    ("x + y", "xy", BOX2),
    ("x*y", "xy", BOX2),
    ("x + y + x*y", "xy", BOX2),
    ("x^2*y", "xy", BOX2),
    ("(x + y^2)^3", "xy", BOX2),
    ("x + y + z", "xyz", BOX3),
    ("x*y*z", "xyz", ((1, 2),) * 3),
    ("exp(x + y^2 + z^3)", "xyz", BOX3),
    ("x^2 + x*y", "xy", BOX2),
    ("x*y + y^2", "xy", BOX2),
    ("x*(y + z)", "xyz", BOX3),
    ("x*y + z", "xyz", BOX3),
    ("x*y + y*z + z*x", "xyz", BOX3),
    ("sin(x) + x*y", "xy", BOX2),
    ("x^2 + x*y + y^3", "xy", BOX2),
    ("x + y*z", "xyz", BOX3),
]


def _hex(x):
    return None if x is None else float(x).hex()


def _point(p):
    return None if p is None else {k: _hex(v) for k, v in p.items()}


def certificate_bits(text: str, names: str, box) -> dict:
    report = classify(FunctionSpec(parse(text), tuple(names), box))
    return {
        "classification": report.classification,
        "witness_point": _point(report.witness_point),
        "witness_value": _hex(report.witness_value),
        "certificates": {
            name: {
                "status": c.status,
                "route": c.route,
                "witness_point": _point(c.witness_point),
                "witness_value": _hex(c.witness_value),
                "zero_point": _point(c.zero_point),
                "valid_fraction": _hex(c.valid_fraction),
            }
            for name, c in report.certificates.items()
        },
    }


@pytest.mark.parametrize("text, names, box", CORPUS, ids=[c[0] for c in CORPUS])
def test_certificate_bits_are_unchanged(text, names, box):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[text]
    assert certificate_bits(text, names, box) == expected


if __name__ == "__main__":
    doc = {text: certificate_bits(text, names, box) for text, names, box in CORPUS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} functions to {GOLDEN}")
