"""Exception hierarchy for the PReVer framework.

Every error raised by the library derives from :class:`PReVerError` so
that callers can catch library failures without masking programming
errors (``TypeError``, ``KeyError``, ...).
"""


class PReVerError(Exception):
    """Base class for all errors raised by the repro library."""


class ConstraintViolation(PReVerError):
    """An update failed verification against a constraint or regulation.

    Carries the identifier of the violated constraint so applications
    can report *which* policy rejected the update without leaking the
    constraint body in contexts where constraints are private.
    """

    def __init__(self, constraint_id: str, message: str = ""):
        self.constraint_id = constraint_id
        super().__init__(message or f"constraint {constraint_id} violated")


class IntegrityError(PReVerError):
    """Stored data, a proof, or a ledger digest failed verification."""


class PrivacyError(PReVerError):
    """An operation would reveal information it must not reveal.

    Raised, for example, when a plaintext value is handed to a component
    that is only allowed to observe ciphertexts or secret shares.
    """


class ProtocolError(PReVerError):
    """A distributed protocol (consensus, MPC, PIR) was misused or
    received a message that violates its state machine."""


class LogCompactedError(ProtocolError):
    """A replicated-log read asked for decided entries that compaction
    already released (every replica that could need them applied them);
    a replica that far behind restarts from a peer snapshot instead."""


class BudgetExhausted(PReVerError):
    """A differential-privacy budget (or token budget) ran out."""

    def __init__(self, spent: float, limit: float, message: str = ""):
        self.spent = spent
        self.limit = limit
        super().__init__(
            message or f"privacy budget exhausted: spent {spent} of {limit}"
        )


class SerializationError(PReVerError):
    """A value could not be canonically serialized or deserialized."""


class DurabilityError(PReVerError):
    """The durability layer (WAL, snapshots, recovery) was misused or
    hit an unrecoverable persistence failure."""


class WalCorruptionError(DurabilityError):
    """The write-ahead log is damaged in a way recovery must refuse to
    repair silently.

    A *torn tail* (an interrupted final write) is expected after a
    crash and is truncated automatically; this error means something
    worse: a CRC-corrupt record with valid records after it, a
    missing/out-of-order LSN, or a damaged non-final segment — all
    signs of bit rot or tampering rather than a clean crash."""
