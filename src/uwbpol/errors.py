"""Exception types shared across the package."""


class UwbPolError(Exception):
    """Base class for all package-specific errors."""


# -- ranging / estimation ----------------------------------------------------

class InvalidTimingError(UwbPolError):
    """Round-trip time is shorter than the reply delay."""


class GeometryError(UwbPolError):
    """Anchor geometry is degenerate (singular or near-singular normal equations)."""


class InsufficientDofError(UwbPolError):
    """Too few measurements to estimate an error radius (n <= dimension)."""


class InsufficientRangesError(UwbPolError):
    """Fewer successful range measurements than the solver needs."""


# -- radio layer -------------------------------------------------------------

class FrameEncodingError(UwbPolError):
    """Frame fields do not fit the wire layout."""


class MalformedFrameError(UwbPolError):
    """Byte string cannot be parsed as a ranging frame."""


class RangingTimeout(UwbPolError):
    """The poll/response exchange produced no usable reply."""


# -- ledger ------------------------------------------------------------------

class LedgerError(UwbPolError):
    """Base class for ledger-side failures."""


class AlreadyEnrolledError(LedgerError):
    pass


class UnauthorizedError(LedgerError):
    pass


class NoSuchChannelError(LedgerError):
    pass


class ChaincodeInstallError(LedgerError):
    """A chaincode off the default channel, or for a tx type that already has one."""


class InvalidTransactionError(LedgerError):
    """Transaction is malformed or out of order (tx id, timestamp, height)."""


class ChaincodeError(LedgerError):
    """Base class for chaincode rejections; the transaction is not committed."""


class AssetNotFoundError(ChaincodeError):
    pass


class AssetConflictError(ChaincodeError):
    pass


# -- protocol ----------------------------------------------------------------

class ProtocolViolationError(UwbPolError):
    """Event is not acceptable in the session's current state."""

    def __init__(self, state, event):
        super().__init__(f"event {event!r} not valid in state {state}")
        self.state = state
        self.event = event


class ValidationUnavailableError(UwbPolError):
    """Position estimate did not converge; the claim cannot be judged."""


# -- scenarios / CLI ---------------------------------------------------------

class ScenarioError(UwbPolError):
    """Scenario file failed to parse or violates an invariant."""
