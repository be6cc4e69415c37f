"""Library-call jobs: documented nordcodes calls that have no CLI command.

Each returns its result as text.  Run one as a job in a fresh interpreter:

    PYTHONPATH=src python3 perfbench/libcalls.py saturation_index 4 60
"""

from __future__ import annotations

import json
import sys

from nordcodes import codes
from nordcodes.hermitian import HermitianCurve


def saturation_index(q, m) -> str:
    """Least ell with E_ell^m = F^n; row-reduces a fresh matrix per ell."""
    return json.dumps({"q": int(q), "m": int(m),
                       "L": codes.saturation_index(HermitianCurve(int(q)), int(m))}) + "\n"


def syndrome_sweep(q, ell, m) -> str:
    """The acceptance-8 sweep: every codeword of C_ell^m has weight at least
    its syndrome rank, and every layer word passes the Prop 6.3 check."""
    q, ell, m = int(q), int(ell), int(m)
    curve = HermitianCurve(q)
    L = codes.saturation_index(curve, m)
    c_ell = codes.build_C(curve, ell, m)
    c_next = codes.build_C(curve, ell + 1, m)
    words = layer = rank_ok = prop63_ok = 0
    for word in c_ell.codewords():
        words += 1
        weight = sum(1 for v in word if v)
        rank_ok += weight >= codes.syndrome_matrix(curve, m, word, L).rank(curve.field)
        if any(word) and not c_next.contains(word):
            layer += 1
            prop63_ok += codes.verify_prop63(curve, ell, m, word)["verdict"] == "PASS"
    return json.dumps({"q": q, "ell": ell, "m": m, "L": L, "words": words,
                       "rank_ok": rank_ok, "layer": layer, "prop63_ok": prop63_ok}) + "\n"


CALLS = {"saturation_index": saturation_index, "syndrome_sweep": syndrome_sweep}

if __name__ == "__main__":
    sys.stdout.write(CALLS[sys.argv[1]](*sys.argv[2:]))
