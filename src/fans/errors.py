"""Exception types shared across the toolkit.

Every failure the library can signal deliberately derives from FansError, so
callers (and the fuzz tests) can distinguish structured rejections from bugs.
"""


class FansError(Exception):
    """Base class for all toolkit errors."""


class EmptyStackError(FansError):
    """A pop or a read ran past the bottom of a bit stack."""


class BadPadding(FansError):
    """Padding bits past the declared bit length are not zero."""


class TruncatedError(FansError):
    """Input ended before a complete field could be read."""


class OverlongVarint(FansError):
    """Varint is not in minimal form (or is absurdly long)."""


class ModeError(FansError):
    """Operation is not defined for the requested tokenizer mode."""


class CorruptError(FansError):
    """Decoder state or archive semantics are inconsistent."""


class BadMagic(FansError):
    """Archive does not start with the expected magic bytes."""


class BadVersion(FansError):
    """Archive version is not supported."""


class TrailingBytes(FansError):
    """Archive has extra bytes past the end of the last section."""


class InconsistentFields(FansError):
    """Mutually contradictory fields were passed to the archive writer."""


class NotDecodableError(FansError):
    """Archive type carries too little information to decode on its own."""
