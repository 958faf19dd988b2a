"""Error classes: each carries the exit code the CLI returns for it.

Every error the package raises on purpose derives from :class:`HypotorusError`
and keeps its builtin base (``ValueError``, ``RuntimeError``).  ``cli.main``
prints it and exits with its ``exit_code``; README.md tabulates the classes.
"""

__all__ = ["ConfigError", "HypotorusError", "WitnessError"]


class HypotorusError(Exception):
    """Base of the package's errors; ``exit_code`` is the CLI's exit status."""

    exit_code = 1
    #: words the CLI puts between "error: " and the message
    lead = ""


class ConfigError(HypotorusError, ValueError):
    """The configuration (file, flags, or an input file or value it names)
    cannot drive the requested command."""


class WitnessError(HypotorusError):
    """A witness construction failed or its built witness failed a check."""

    lead = "witness construction failed: "
