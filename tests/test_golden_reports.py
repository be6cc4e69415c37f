"""Golden reports: the sha256 of `axiom_check(...).dumps()` and of the
`filtration_check` JSON, and the `normalize` result, on a grid of models;
and the sha256 of `code build` and `code distance` stdout on a grid of
Hermitian cells.

The hashes pin the whole text of each report (verdicts, witness elements in
their report form, sample order, number types), so any change to the
element representation or to the checkers that alters a byte fails here.
They were recorded with the numpy-based checker and the per-model payload
types that preceded the sparse monomial algebra; the code hashes, with the
parity check taken as the nullspace of the generator, before C_l^m was
built at its own divisor.  Regenerate them only for an intended change of
the report format:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import hashlib
import io
import json

import pytest

import sparse_reference as ref
from nordcodes import cli, filtration, models
from nordcodes.errors import NordError
from nordcodes.field import make_field
from nordcodes.hermitian import HermitianCurve
from nordcodes.models import NEG_INF


class Broken(ref.Sparse, models.LaurentModel):
    """Violates N2 (and more): rho grows with the number of terms."""

    def rho(self, f):
        base = super().rho(f)
        return base if base == NEG_INF else base + len(f)


class Doubled(models.LaurentModel):
    """rho doubled, as twice the Laurent weight."""

    def weight(self, key):
        return 2 * super().weight(key)


def _halved(cls):
    class Halved(ref.Sparse, cls):
        """rho halved, rounded up: filtration levels stop growing by one."""

        def rho(self, f):
            base = super().rho(f)
            return base if base == NEG_INF else (base + 1) // 2

    return Halved


def _build(kind: str, p: int, k: int):
    """kind names the model; (p, k) is the field, or (q, 1) for curves."""
    F = make_field(p, k)
    if kind.startswith("constant-"):
        return models.ConstantModel(F, int(kind[-1]))
    if kind == "ideal-t^2":
        return models.IdealModel(F, [0, 0, 1])
    if kind == "ideal-t+1":
        return models.IdealModel(F, [1, 1])
    if kind == "laurent":
        return models.LaurentModel(F)
    if kind == "broken-laurent":
        return Broken(F)
    if kind == "halved-laurent":
        return _halved(models.LaurentModel)(F)
    if kind == "normalized-doubled-laurent":
        return filtration.normalize(Doubled(F), 3)
    curve = HermitianCurve(p)
    if kind == "normalized-curve-rho":
        return filtration.normalize(models.CurveValuationModel(curve, "rho"), 4)
    if kind == "halved-curve-rho":
        return _halved(models.CurveValuationModel)(curve, "rho")
    return models.CurveValuationModel(curve, kind.split("-")[1])


# (model, p, k, bound, also check filtration and normalize)
CASES = [
    ("constant-0", 2, 1, 2, True),
    ("constant-0", 3, 1, 3, True),
    ("constant-0", 2, 2, 2, True),
    ("constant-1", 2, 1, 3, True),
    ("constant-1", 3, 1, 2, True),
    ("constant-1", 2, 2, 2, True),
    ("ideal-t^2", 2, 1, 3, True),
    ("ideal-t^2", 3, 1, 3, True),
    ("ideal-t^2", 2, 2, 2, True),
    ("ideal-t+1", 2, 1, 2, True),
    ("ideal-t+1", 3, 1, 2, True),
    ("ideal-t+1", 2, 2, 2, True),
    ("laurent", 2, 1, 2, True),
    ("laurent", 2, 1, 3, True),
    ("laurent", 3, 1, 2, True),
    ("laurent", 2, 2, 3, True),  # two-monomial sample
    ("curve-rho", 2, 1, 2, True),
    ("curve-rho", 2, 1, 4, True),  # two-monomial sample
    ("curve-sigma", 2, 1, 4, True),
    ("broken-laurent", 2, 1, 2, False),
    ("broken-laurent", 3, 1, 2, False),
    ("broken-laurent", 7, 1, 1, False),  # 343 elements: leading-coefficient-1 reps
    ("halved-laurent", 2, 1, 2, True),  # filtration failures with witnesses
    ("halved-curve-rho", 2, 1, 4, True),
    ("normalized-doubled-laurent", 2, 1, 3, False),
    ("normalized-curve-rho", 2, 1, 4, False),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(fn):
    try:
        return fn()
    except NordError as exc:
        return f"error {exc.name}: {exc}"


def digest(kind, p, k, bound, full):
    model = _build(kind, p, k)
    rep = _run(lambda: models.axiom_check(model, bound))
    out = {"axioms": _sha(rep if isinstance(rep, str) else rep.dumps())}
    if full:
        filt = _run(lambda: filtration.filtration_check(model, bound))
        out["filtration"] = _sha(json.dumps(filt, sort_keys=True, default=str))
        norm = _run(lambda: filtration.normalize(model, bound))
        out["normalize"] = norm if isinstance(norm, str) else norm.name
    return out


GOLDEN = {
    'constant-0-2-1-2': {
        'axioms': '5884e658d9edc41a8847653dbd0eaa11395e7244aa9dda6c41ae6edb085347bf',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'constant-0-3-1-3': {
        'axioms': 'da0e28cd7d4d12b7e3e67a01c0784f6c6ee8416eee6929abe3b49a13c224f50c',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'constant-0-2-2-2': {
        'axioms': '378e8e99dbd42966a934177181edb01a9adbeefed5e94ae4402745c6c21c4a69',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'constant-1-2-1-3': {
        'axioms': '891ef8d2e67850a722a677f02a1a8735396b14efcc5f406325abfd713a103112',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'constant-1-3-1-2': {
        'axioms': 'af85c6c04bfc61fb1b26fa70647685edbf92eb214e3c4611d17bfa6b97bdebc5',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'constant-1-2-2-2': {
        'axioms': 'e91118580fb7bbc36d56eb4ed68320b7b01108d295575090791d93d7ec28a12a',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'ideal-t^2-2-1-3': {
        'axioms': '68f3e0eeeb3264bb73693d92583e29927c1237c4e2814ca05add5cf1a3337538',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'ideal-t^2-3-1-3': {
        'axioms': '80a55a3f8bdab19c1388e2615795959c10ba7217c500a1a6c4a74f1f7c196745',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'ideal-t^2-2-2-2': {
        'axioms': 'ddb8a638f847715baed711bb0a31e9898fc7b73da8d99058ac5516e8ca86e827',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'ideal-t+1-2-1-2': {
        'axioms': 'e44e6f1ce24941aedee38ff383e0c31a339f97419aa3bececcf1919f1a8250e8',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'ideal-t+1-3-1-2': {
        'axioms': '2c454375ee6ac8560946a8711aad67509238895cddf3cf7a14f1f2b25ab4e13a',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'ideal-t+1-2-2-2': {
        'axioms': 'f8549f1d5f6abac0237b8cfd0cc64734c899c82f56a77ac3571e6cbb8ff00bb5',
        'filtration': 'cae3c3a9f346ea2a001f9c5bdb2611811ebf58b85688e494a873ede20ab1a8c6',
        'normalize': 'error TrivialModel: no non-unit elements in the sample',
    },
    'laurent-2-1-2': {
        'axioms': 'eb8c4b3e044d708e4f0349b29b72ee96ca09fe729d58673abd074bd75fd3583b',
        'filtration': 'a10cc1992867210e0632a8e551d4b1267b47c62752791884169fb513c3ddfdcd',
        'normalize': 'normalized(laurent, d=1)',
    },
    'laurent-2-1-3': {
        'axioms': '73044290f6a169ded7642365c97fb84ae76dc7680f933fc728268163caa6b614',
        'filtration': '1ce4920a94192ebbb75b4e67549127852a6ba789e87de9d35cfbbaeb0011e7b2',
        'normalize': 'normalized(laurent, d=1)',
    },
    'laurent-3-1-2': {
        'axioms': 'b6f67ef1cd696c9e67e2d6a9699f08ed09ad2831ee1bab81302a4cf6b8beb4bd',
        'filtration': 'a10cc1992867210e0632a8e551d4b1267b47c62752791884169fb513c3ddfdcd',
        'normalize': 'normalized(laurent, d=1)',
    },
    'laurent-2-2-3': {
        'axioms': 'a4d0457cdf2887e41b2ae674ea55f2a48324ed3597ee1f7f7aa9723bf239ef93',
        'filtration': '1ce4920a94192ebbb75b4e67549127852a6ba789e87de9d35cfbbaeb0011e7b2',
        'normalize': 'normalized(laurent, d=1)',
    },
    'curve-rho-2-1-2': {
        'axioms': '145f66f6eb060bf5fb4fc356c3b176a2384b718ac898207d1a0c5c6622d7b42e',
        'filtration': '0a67c7e5420ed40ae98aea82bdd971ce669cdedea0850fc3d7077309a56cac13',
        'normalize': 'normalized(curve(q=2, rho), d=1)',
    },
    'curve-rho-2-1-4': {
        'axioms': '01528c4bb126d7e28523f7f94c3b5de7bdbeceb92d86f60be34b35212917482c',
        'filtration': '6624c8e2da203315bd46bde2d8712fa581ffb68b58c0e57dc8e171d28ac34d78',
        'normalize': 'normalized(curve(q=2, rho), d=1)',
    },
    'curve-sigma-2-1-4': {
        'axioms': '7fa86ebf0733c1cbb86b52bb55fb17acb2cdb91854a7a08f0fdb49516be298df',
        'filtration': 'c6000e9551196543240f80d14d986ca151b9510138d61fef532cb2f9cc8a3e49',
        'normalize': 'normalized(curve(q=2, sigma), d=1)',
    },
    'broken-laurent-2-1-2': {
        'axioms': '7be993081e0d1789ed3acf602b1f63f38985ac88b67cf8a3d4b6da1cb5802b0f',
    },
    'broken-laurent-3-1-2': {
        'axioms': 'deb3771c8d00f86b7a13e094a194bf49d5091c2c4d97c2e88e7f6365a71d8b08',
    },
    'broken-laurent-7-1-1': {
        'axioms': 'ea496615bc44e300c08742b2856cb83142e89712ad0b9fbd7beb2c4a3fa56f67',
    },
    'halved-laurent-2-1-2': {
        'axioms': '09ac599b5c092a52959ac9c0072af0658d4cd9c08220f53202222f5098d83dd7',
        'filtration': '280bf57c20f3464ec45d6f2c51238c7cc0eaffb70cac0758ed9ab5d9840294e7',
        'normalize': 'normalized(laurent, d=1)',
    },
    'halved-curve-rho-2-1-4': {
        'axioms': '921f7f3ab27610da1e114e781367b79542608ab800d7408e9a8ac7530ffc94e4',
        'filtration': 'dfa025e7f64665b78f22ceeb15a9b698869f6369f484bf984d02aa243d7673e6',
        'normalize': 'normalized(curve(q=2, rho), d=1)',
    },
    'normalized-doubled-laurent-2-1-3': {
        'axioms': 'de1d6f6c1baac8e6b7df4882fbddde06607a06ce0bff3bc29ea4935e6422e314',
    },
    'normalized-curve-rho-2-1-4': {
        'axioms': '136c9e8979145086d53efd1c75777cea2b3fe8659e33d6535c5b1ea59db9e039',
    },
}


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c[:4])))
def test_golden_report(case):
    assert digest(*case) == GOLDEN["-".join(map(str, case[:4]))]


# (q, ell, m): k(C) = 6, 4 and 0 at q = 2, the last past ell + m = n + 2g - 1;
# k(C) = 3, 1 and 0 at q = 3, the last saturated below that line; a q = 4
# benchmark build, k(C) = 3, and C = {0} three below the line at m = 60
CODE_CELLS = [(2, 0, 1), (2, 2, 1), (2, 6, 3), (3, 20, 5), (3, 23, 5), (3, 24, 5),
              (4, 20, 11), (4, 55, 11), (4, 11, 60)]
CODE_CASES = [f"code {action} --q {q} --ell {ell} --m {m}"
              for q, ell, m in CODE_CELLS for action in ("build", "distance")
              if (action, q, ell) != ("distance", 4, 20)]  # 16^37 messages


def code_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv.split()) == 0
    return _sha(out.getvalue())


CODE_GOLDEN = {
    'code build --q 2 --ell 0 --m 1': 'aaf6bd9a48ae637389b853aafb85e6d9de444fae62d508b1c07af4bf67b315db',
    'code distance --q 2 --ell 0 --m 1': 'f6f1aaaf62991140045f0167c3e5cbfa345b66034dededa2468f30bcde7f18ef',
    'code build --q 2 --ell 2 --m 1': '1c2830f915a8524722f8ec4c8500e820af4c5e32af00ed78a2dd1e80d861cd41',
    'code distance --q 2 --ell 2 --m 1': 'b9c5e46a66864b67bbc52278034ce7189f932c4df5d3600aa628775798f17ca0',
    'code build --q 2 --ell 6 --m 3': '5a1db344a21920f16485bdc26b25d389f30feaabfaafc7ec31c37ed5fc06d276',
    'code distance --q 2 --ell 6 --m 3': 'f61ac9ce748b8436cee4a8bca6ad1bf7ef86195a792dc7015e75e1ec4d1a3108',
    'code build --q 3 --ell 20 --m 5': '12e32a220237b43a40185ba2a32c61c69d5053edc659a90e49b495b88c69c04a',
    'code distance --q 3 --ell 20 --m 5': '75ed718ccc0c16eef6d41f956b03363226ac79694593731ff4f34609cdb81bf4',
    'code build --q 3 --ell 23 --m 5': 'd8583102337fb92515fe08746387a5870580c90c64fbe259ac75680d07b6a28e',
    'code distance --q 3 --ell 23 --m 5': '17d4f1e8666dd35987e0b07a567ceeb2fcf9d0e4997b6bd3a57d544759c6b473',
    'code build --q 3 --ell 24 --m 5': '88a404121d07ce5a8e0d992c4a37240336a0c631d2cc21e267832e8c911bd1b2',
    'code distance --q 3 --ell 24 --m 5': '0442b254958fb5aa379471df53b9f78237dd19ff6ec9577800dcba1f0a4b1dc2',
    'code build --q 4 --ell 20 --m 11': '44f6f0dd4258f4f7bffbafe5a53c5a2b5d4e343eb88cc41da104ab68a88d7bc9',
    'code build --q 4 --ell 55 --m 11': '415f995b6737fff6ed410de49051451ea8a08f16c28e980c468566d69c27d7a5',
    'code distance --q 4 --ell 55 --m 11': '29a34ad285052d7a1fa61d67ff8150c4f536925850a09a6d2b8d2a8f8a5497ec',
    'code build --q 4 --ell 11 --m 60': 'b454854fc2726ae2971ecaf7ef4f80de1a20212801c1ff712de5a4b1ca052ea0',
    'code distance --q 4 --ell 11 --m 60': '81b7135143777c4263b19aa6ae7a0e74d3588254af1f80e8978a573334a86f01',
}


@pytest.mark.parametrize("argv", CODE_CASES)
def test_golden_code_output(argv):
    assert code_digest(argv) == CODE_GOLDEN[argv]


if __name__ == "__main__":
    for case in CASES:
        print(f'    {"-".join(map(str, case[:4]))!r}: {digest(*case)!r},')
    for argv in CODE_CASES:
        print(f'    {argv!r}: {code_digest(argv)!r},')
