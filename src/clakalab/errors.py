"""Exception types shared across the package."""


class ClakaError(Exception):
    """Base class for every error raised by this package."""


class BackendMismatchError(ClakaError):
    """Group elements or scalars from different pairing backends were combined."""


class EncodingError(ClakaError):
    """A byte string or JSON record does not decode to a valid value."""


class DegenerateScalarError(ClakaError):
    """A scalar that must be invertible reduced to zero."""


class MissingTranscriptFieldError(ClakaError):
    """A session view lacks a required identity, public key, or T-value."""


class SignatureInvalidError(ClakaError):
    """A peer's round-one signature failed verification; the session aborts."""

    def __init__(self, peer: bytes):
        self.peer = peer
        super().__init__(f"signature rejected (peer {peer!r})")


class DegenerateDenominatorError(ClakaError):
    """Two identity hashes collide, leaving a recovery division undefined."""


class ScenarioError(ClakaError):
    """A scenario configuration combines options that do not go together."""
