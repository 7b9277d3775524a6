"""Exception and warning types shared across the toolchain."""


class LowriskError(Exception):
    """Base class for all errors raised by this package."""


class JavaParseError(LowriskError):
    """Raised when Java source cannot be tokenized or structurally parsed."""

    def __init__(self, message, file_path=None, line=None, col=None):
        self.file_path = file_path
        self.line = line
        self.col = col
        loc = ""
        if file_path is not None:
            loc = f"{file_path}:"
            if line is not None:
                loc += f"{line}:"
                if col is not None:
                    loc += f"{col}:"
            loc += " "
        super().__init__(f"{loc}{message}")


class SchemaError(LowriskError):
    """A CSV or JSON artifact does not match the documented schema."""


class EmptyDatabaseError(LowriskError):
    """Mining was attempted on zero transactions."""


class InsufficientMinorityError(LowriskError):
    """Too few minority vectors to run synthetic oversampling."""


class TooFewMinorityError(LowriskError):
    """Too few faulty (or non-faulty) methods to build stratified folds."""


class VocabularyMismatchError(LowriskError):
    """A classifier was applied to vectors from a different item vocabulary."""


class LowriskWarning(UserWarning):
    """Base class for diagnostics that do not abort a run."""


class DegenerateDistributionWarning(LowriskWarning):
    """A tertile metric had a single distinct value; everything maps to class 1."""


class ImbalanceUnachievableWarning(LowriskWarning):
    """The majority pool was too small for the requested undersampling rate."""


class UnmatchedFaultyWarning(LowriskWarning):
    """A faulty method identity was absent from the current-state snapshot."""


class NoAdmissibleRulesWarning(LowriskWarning):
    """Even the single top rule exceeds the fault budget; classifier matches nothing."""


class AntecedentCapWarning(LowriskWarning):
    """Generators below confidence 1 are still alive at the antecedent length cap.

    Longer non-redundant rules may exist beyond the cap.
    """
