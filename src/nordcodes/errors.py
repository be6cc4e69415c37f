"""Exception hierarchy shared by all modules.

Every mathematically meaningful failure gets its own class so the CLI can
report the error name and exit with status 1 (vs. 2 for usage errors).
"""


class NordError(Exception):
    """Base class for all library errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


# finite_field
class NotPrime(NordError):
    pass


class ReduciblePolynomial(NordError):
    pass


class FieldTooLarge(NordError):
    pass


class DivisionByZero(NordError):
    pass


# semigroup
class NotCoprime(NordError):
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


# bound_engine
class MBelowLambda(NordError):
    pass


class NegativeEll(NordError):
    pass


class HypothesisNotMet(NordError):
    pass


class TableTooLarge(NordError):
    pass


# nweight_models
class GIsConstant(NordError):
    pass


class CoefficientOutOfRange(NordError):
    pass


class TrivialModel(NordError):
    pass


class SampleTooLarge(NordError):
    pass


class EmptyLevel(NordError):
    pass


class NegativeRho(NordError):
    pass


# hermitian_curve
class UnsupportedQ(NordError):
    pass


# codes
class SearchTooLarge(NordError):
    pass


class SaturationNotReached(NordError):
    pass


class WordNotInLayer(NordError):
    pass
