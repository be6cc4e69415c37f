"""Exception hierarchy shared by all modules, and the boundary checks.

Every mathematically meaningful failure gets its own class so the CLI can
report the error name and exit with status 1 (vs. 2 for usage errors).
The `require_*` checks are the one place where ell >= 0, m >= lambda_sigma
(for d_nord and the codes) and a sample bound >= 0 (for the models) are checked.
"""


class NordError(Exception):
    """Base class for all library errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


def require_ell(ell: int):
    if ell < 0:
        raise NegativeEll(f"ell = {ell} < 0")


def require_m(m: int, lam: int):
    if m < lam:
        raise MBelowLambda(f"m = {m} < lambda_sigma = {lam}")


def require_bound(bound: int):
    if bound < 0:
        raise NegativeBound(f"bound = {bound} < 0")


# field
class NotPrime(NordError):
    pass


class FieldTooLarge(NordError):
    pass


class DivisionByZero(NordError):
    pass


# semigroup
class NotCoprime(NordError):
    pass


class NegativeGenerator(NordError):
    pass


class ClosureViolation(NordError):
    def __init__(self, a, b, total):
        self.witness = (a, b, total)
        super().__init__(f"{a} + {b} = {total} is a gap but both summands are nongaps")


class ZeroExcludedViolation(NordError):
    pass


class ProfileBijectionViolation(NordError):
    pass


class SemigroupTooLarge(NordError):
    pass


class MalformedProfile(NordError):
    pass


class MalformedSemigroup(NordError):
    pass


# bounds and codes
class MBelowLambda(NordError):
    pass


class NegativeEll(NordError):
    pass


class HypothesisNotMet(NordError):
    pass


class TableTooLarge(NordError):
    pass


# models and filtration
class GIsConstant(NordError):
    pass


class CoefficientOutOfRange(NordError):
    pass


class TrivialModel(NordError):
    pass


class SampleTooLarge(NordError):
    pass


class NegativeBound(NordError):
    pass


class EmptyLevel(NordError):
    pass


class NegativeRho(NordError):
    pass


# hermitian
class UnsupportedQ(NordError):
    pass


# codes
class SearchTooLarge(NordError):
    pass


class WordNotInLayer(NordError):
    pass


class NotAVector(NordError):
    pass
