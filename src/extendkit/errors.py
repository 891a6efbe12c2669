"""Exception taxonomy shared across the package.

Three families matter to callers (the CLI maps them to exit codes):
InputError covers anything wrong with user-supplied data, ResourceCapError
covers refusals on size grounds, and CertificateError covers malformed or
inconsistent certificate objects. InternalError is a failed self-check of
the package's own results, never a verdict on the input.
"""


class ExtendkitError(Exception):
    pass


class InternalError(ExtendkitError):
    """A self-check of a computed result failed (a bug, not bad input)."""


class InputError(ExtendkitError):
    """Bad user input; CLI exit code 2."""


class MalformedDocument(InputError):
    pass


class MalformedRational(InputError):
    pass


class DuplicatePoint(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class NegativeValueForClass(InputError):
    pass


class ValueNotPositive(InputError):
    pass


class EpsilonOutOfRange(InputError):
    pass


class InfeasibleParameters(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class UnattainableFactor(InputError):
    """No finite multiplicative factor exists (e.g. the empty set pinned
    to a positive value for an XOS target class)."""


class ResourceCapError(ExtendkitError):
    """Work refused because a size cap was exceeded; CLI exit code 3."""


class ClosureCapExceeded(ResourceCapError):
    def __init__(self, size_so_far: int, cap: int):
        self.size_so_far = size_so_far
        self.cap = cap
        super().__init__(
            f"lattice closure exceeded cap={cap} (partial size {size_so_far})"
        )


class TooLarge(ResourceCapError):
    pass


class DegenerateHull(ResourceCapError):
    pass


class CertificateError(ExtendkitError):
    pass


class WitnessInvalid(CertificateError):
    pass


class MergeStuck(CertificateError):
    pass


class MalformedCircuit(CertificateError):
    pass


class IncompleteAssignment(CertificateError):
    pass
