"""UWB proof-of-location simulator.

Ranging over a simulated UWB channel, position estimation by least-squares
multilateration, a simulated permissioned ledger for identities and records,
and the landing-authorization handshake that validates a UAV's broadcast
position against the radio-derived estimate.
"""

from .clock import SimClock
from .errors import UwbPolError
from .geo import (
    AnchorSet,
    EstimateResult,
    Position,
    RangeStats,
    SPEED_OF_LIGHT,
    distance,
    error_radius,
    multilaterate,
    twr_distance,
)
from .ledger import (
    Asset,
    Certificate,
    Identity,
    Ledger,
    Role,
    Transaction,
    replay_audit_log,
)
from .pol import (
    LocationClaim,
    PolChaincode,
    PolSession,
    SessionState,
    Verdict,
    generate_codes,
    run_session,
    validate_location,
)
from .sim import AttackSpec, RunReport, Scenario, get_preset, load_scenario, run, sweep
from .uwb import (
    ChannelModel,
    FrameType,
    RadioNode,
    RangingFrame,
    decode_frame,
    encode_frame,
    ranging_exchange,
    ranging_sweep,
    transmit,
)

__version__ = "0.1.0"
