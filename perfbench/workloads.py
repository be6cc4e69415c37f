"""Workload definitions: job families, their instance menus and set-up.

A job instance is a tuple of strings.  ``("cli", *argv)`` runs
``nordcodes <argv>``; ``("lib", name, *args)`` runs the library call
``libcalls.<name>(*args)``.  Inside argv, ``{in:NAME}`` names a committed
input file under ``perfbench/inputs/`` and ``{out}`` is replaced by a fresh
output path for the job.

Each family offers a small menu of instances of similar cost; the workload
seed picks one instance per family and the job order.  Where a model has no
second instance of similar cost the menu has one entry.
"""

from __future__ import annotations

import random


def _cli(*argv):
    return ("cli",) + tuple(str(a) for a in argv)


def _lib(name, *args):
    return ("lib", name) + tuple(str(a) for a in args)


def _table(profile, m_lo, m_hi, ell_hi):
    return _cli("bound", "--profile", "{in:%s}" % profile, "--ell", 0, "--m", m_lo,
                "--table", "--ell-range", f"0..{ell_hi}", "--m-range", f"{m_lo}..{m_hi}",
                "--csv", "{out}")


# Why each workload exists, and which layers it loads.
#   bound-pipeline: semigroup -> profile -> bound.  The bounds and semigroup
#     layers do nearly all the work; linalg, codes and models stay idle.  A
#     counting bound engine shows here and nowhere else.
#   code-ground-truth: build Hermitian codes and find their distances by brute
#     force.  codes, linalg, field (dense vectors) and hermitian do the work,
#     with large eliminations (build, saturation) and many tiny ranks (the
#     syndrome sweep).  A vectorised field/linalg/codes core shows here.
#   axiom-sweep: the axiom checker over all five models.  models does the
#     work, with field used for scalar polynomial coefficients and hermitian
#     for function products.  An algebra rewrite of the models shows here, and
#     a vectorised field that slows scalar ops shows as a regression.
WORKLOADS = {
    "bound-pipeline": {
        "semigroup-generators": [
            _cli("semigroup", "--generators", "120,121"),
            _cli("semigroup", "--generators", "119,120"),
            _cli("semigroup", "--generators", "117,122"),
            _cli("semigroup", "--generators", "116,123"),
        ],
        "semigroup-curve": [_cli("semigroup", "--curve-q", q) for q in (4, 5)],
        "profile-curve": [_cli("profile", "--curve-q", q) for q in (4, 5)],
        "profile-hyperelliptic": [
            _cli("profile", "--hyperelliptic-gamma", g) for g in (38, 39, 40, 41)
        ],
        "bound-table-genus40": [
            _table("hyperelliptic-40", lo, lo + 3, 59) for lo in (40, 50, 60, 70)
        ],
        "bound-table-q5": [
            _table("hermitian-5", lo, lo + 3, 99) for lo in (19, 25, 31, 35)
        ],
        "bound-large-ell": [
            _cli("bound", "--profile", "{in:hyperelliptic-2}", "--ell", ell, "--m", m)
            for ell, m in ((100000, 3), (100001, 3), (100002, 4), (100003, 4))
        ],
        "bound-diagnose": [
            _cli("bound", "--profile", "{in:hermitian-5}", "--ell", ell, "--m", m,
                 "--diagnose")
            for ell, m in ((30, 19), (31, 20), (32, 21), (33, 22))
        ],
    },
    "code-ground-truth": {
        "code-build-q5": [
            _cli("code", "build", "--q", 5, "--ell", ell, "--m", m)
            for ell, m in ((40, 19), (41, 19), (40, 20), (39, 20))
        ],
        "code-build-q4": [
            _cli("code", "build", "--q", 4, "--ell", ell, "--m", m)
            for ell, m in ((20, 11), (21, 11), (20, 12), (19, 12))
        ],
        # k = 4 over GF(9): 9^4 messages at n = 26
        "code-distance-q3": [
            _cli("code", "distance", "--q", 3, "--ell", ell, "--m", m)
            for ell, m in ((19, 5), (18, 6), (17, 7), (16, 8))
        ],
        # k = 3 over GF(16): 16^3 messages at n = 63
        "code-distance-q4": [
            _cli("code", "distance", "--q", 4, "--ell", ell, "--m", m)
            for ell, m in ((55, 11), (53, 12), (54, 13), (52, 14))
        ],
        # the acceptance-7 grid at q = 2, split by dim C (5 and 4)
        "code-verify-q2-k5": [
            _cli("code", "verify", "--q", 2, "--ell", ell, "--m", m)
            for ell, m in ((1, 1), (0, 2))
        ],
        "code-verify-q2-k4": [
            _cli("code", "verify", "--q", 2, "--ell", ell, "--m", m)
            for ell, m in ((2, 1), (1, 2), (0, 3))
        ],
        "saturation-index": [_lib("saturation_index", 4, m) for m in (60, 61)],
        "syndrome-sweep": [
            _lib("syndrome_sweep", 2, ell, m) for ell, m in ((2, 1), (1, 2))
        ],
    },
    "axiom-sweep": {
        "axioms-laurent": [
            _cli("axioms", "--model", "laurent", "--p", 3, "--k", 1, "--bound", 2)
        ],
        "axioms-curve-rho": [_cli("axioms", "--model", "curve-rho", "--q", 2, "--bound", 4)],
        "axioms-curve-sigma": [
            _cli("axioms", "--model", "curve-sigma", "--q", 2, "--bound", 4)
        ],
        "axioms-laurent-small": [
            _cli("axioms", "--model", "laurent", "--p", 2, "--k", 1, "--bound", 3),
            _cli("axioms", "--model", "laurent", "--p", 5, "--k", 1, "--bound", 1),
        ],
        "axioms-constant": [
            _cli("axioms", "--model", "constant", "--p", 3, "--c", c, "--bound", 3)
            for c in (0, 1, 2)
        ] + [_cli("axioms", "--model", "constant", "--p", 2, "--c", 1, "--bound", 5)],
        "axioms-ideal": [
            _cli("axioms", "--model", "ideal", "--p", 3, "--bound", 3),
            _cli("axioms", "--model", "ideal", "--p", 2, "--bound", 5),
        ],
    },
}

# What a fresh interpreter builds for setup_s: every field and curve any
# instance of the workload uses, so the figure does not depend on the seed.
SETUP = {
    "bound-pipeline": "import nordcodes as n; n.HermitianCurve(4); n.HermitianCurve(5)",
    "code-ground-truth": (
        "import nordcodes as n; "
        "[n.HermitianCurve(q) for q in (2, 3, 4, 5)]"
    ),
    "axiom-sweep": (
        "import nordcodes as n; n.HermitianCurve(2); "
        "[n.make_field(p, 1) for p in (2, 3, 5)]"
    ),
}

INPUTS = {
    "hyperelliptic-2": ("profile", "--hyperelliptic-gamma", "2"),
    "hyperelliptic-40": ("profile", "--hyperelliptic-gamma", "40"),
    "hermitian-5": ("profile", "--curve-q", "5"),
}


def instance_id(inst) -> str:
    return " ".join(inst)


def all_instances():
    for families in WORKLOADS.values():
        for menu in families.values():
            yield from menu


def pick_jobs(workload: str, seed: int):
    """One instance per family, in a seed-determined order: [(family, inst)]."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = [(fam, rng.choice(menu)) for fam, menu in sorted(WORKLOADS[workload].items())]
    rng.shuffle(jobs)
    return jobs


def expand(inst, inputs_dir, out_path):
    """Concrete argv for an instance (without the 'cli'/'lib' tag) and whether
    it writes an output file."""
    argv, writes = [], False
    for a in inst[1:]:
        if a.startswith("{in:"):
            a = str(inputs_dir / (a[4:-1] + ".json"))
        elif a == "{out}":
            a, writes = str(out_path), True
        argv.append(a)
    return argv, writes
