"""Exception hierarchy shared by all modules.

CLI exit codes: ConfigError (and an OSError on a configured path) -> 2,
FormatError/InputError -> 3, everything else under ToolkitError -> 4.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ToolkitError):
    """Invalid or inconsistent configuration."""


class RecipeError(ConfigError):
    """Invalid fixture recipe."""


class FormatError(ToolkitError):
    """A file or stream does not follow its documented format."""


class CorruptionError(FormatError):
    """A checkpoint stream is structurally valid but internally inconsistent."""


class InputError(ToolkitError):
    """Well-formed call with arguments that violate an operation's preconditions."""


class TransferError(ToolkitError):
    """Checkpoint incompatible with the requested run (shapes or vocabulary)."""


class ContractViolation(ToolkitError):
    """An internal numeric contract cannot be satisfied (e.g. fully masked attention row)."""


class NoAnswerError(ToolkitError):
    """Span extraction found no admissible (start, end) pair."""
