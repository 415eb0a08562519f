"""Exceptions shared across the toolkit."""


class WeylBNError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpec(WeylBNError):
    """Inadmissible (family, rank) combination."""


class NonCrystallographicInput(WeylBNError):
    """A reflection produced a non-integral Cartan pairing."""


class NotNonReduced(WeylBNError):
    """An operation requiring a non-reduced (BC) system got a reduced one."""


class RankTooSmall(WeylBNError):
    """Rank below the minimum the operation is defined for."""


class EnumerationCapExceeded(WeylBNError):
    """An enumeration would grow, or grew, past its cap.

    ``partial_count`` holds the number of items counted before bailing
    out.  Reduced words are counted one length at a time before any is
    listed: the count is exact when the refusal comes at the last level,
    and a lower bound when it comes before.
    """

    def __init__(self, message, partial_count):
        super().__init__(message)
        self.partial_count = partial_count


class GroupTooLarge(WeylBNError):
    """A group exceeds the cap for full-enumeration features."""


class WitnessNotApplicable(WeylBNError):
    """The two-reduced-word witness construction does not apply here."""


class HNotNormal(WeylBNError):
    """B ∩ N is not normal in N, so no Weyl group can be derived."""


class NotAStabilizer(WeylBNError):
    """B is not the stabilizer of the chamber whose orbit numbers G/B."""


class WeylNotGenerated(WeylBNError):
    """S does not generate the Weyl group: some classes have no S-word."""


class NotTwoTransitive(WeylBNError):
    """The given action is not 2-transitive."""


class SubgroupNotFound(WeylBNError):
    """A subgroup search that must succeed came up empty."""
