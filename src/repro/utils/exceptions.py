"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can catch every library failure with a single ``except`` clause while
still being able to distinguish configuration problems from data problems.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when a model or experiment is configured with invalid options."""


class DataError(ReproError):
    """Raised when a dataset, schema or answer set is malformed."""


class InferenceError(ReproError):
    """Raised when truth inference cannot be completed (e.g. no answers)."""


class AssignmentError(ReproError):
    """Raised when a task-assignment policy cannot produce an assignment."""


class DurabilityError(ReproError):
    """Raised when a write-ahead log or snapshot store is inconsistent."""


class DirectoryLockedError(DurabilityError):
    """Raised when a durable directory is already open in another session."""
