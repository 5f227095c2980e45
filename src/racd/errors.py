"""The one base class of the errors that racd raises for its own conditions."""


class RacdError(Exception):
    """Base of racd's own errors.  The concrete classes also derive from the
    builtin they specialize (``ValueError``, ``RuntimeError``), so existing
    handlers keep catching them; ``racd`` on the command line reports any of
    them as one ``error:`` line and exit code 2."""
