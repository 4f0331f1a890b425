"""The printer on the classifier corpus, pinned by digest.

For each of the 16 corpus functions, ``golden/printer.json`` holds the sha256
of ``to_string`` and of the ``domain_notes`` list of the function, of its
first and second partials, and of its certificates (kappa for a bivariate
function, G1-G3 for a trivariate one).  Refresh it only for an intended
change of the printer:

    PYTHONPATH=src python tests/test_printer_pin.py
"""

import hashlib
import json
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from expandlab.degeneracy import _kappa, aux_trivariate
from expandlab.expr import FunctionSpec, domain_notes, parse, to_string

from test_witness_bits import CORPUS

GOLDEN = Path(__file__).with_name("golden") / "printer.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expressions(text: str, names: str, box) -> dict:
    f = FunctionSpec(parse(text), tuple(names), box)
    out = {"f": f.expr}
    out.update((f"f_{v}", f.partial(v)) for v in names)
    out.update((f"f_{u}{v}", f.partial2(u, v)) for u, v in combinations_with_replacement(names, 2))
    if f.arity == 2:
        out["kappa"] = _kappa(f, out["f_x"], out["f_y"], out["f_xy"])
    else:
        out.update(zip(("G1", "G2", "G3"), aux_trivariate(f)))
    return out


def printer_digests(text: str, names: str, box) -> dict:
    return {
        name: {"to_string": _sha(to_string(e)), "domain_notes": _sha(json.dumps(domain_notes(e)))}
        for name, e in _expressions(text, names, box).items()
    }


@pytest.mark.parametrize("text, names, box", CORPUS, ids=[c[0] for c in CORPUS])
def test_printer_output_is_unchanged(text, names, box):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[text]
    assert printer_digests(text, names, box) == expected


if __name__ == "__main__":
    doc = {text: printer_digests(text, names, box) for text, names, box in CORPUS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} functions to {GOLDEN}")
