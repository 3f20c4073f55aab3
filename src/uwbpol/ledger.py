"""Simulated permissioned ledger.

A single in-process ordering service with immediate finality stands in for a
real blockchain network: certificate-based identities issued by a built-in
authority, two fixed channels carrying totally ordered transactions
(`_members`, open to the authority alone, and `pol`, open to every role),
chaincode dispatched on commit, and an event feed per subscriber. Signing
keys are derived deterministically from the ledger seed so that a run's
audit log is reproducible byte for byte.

Every admission decision is made in one place, LedgerState.commit: the live
ledger commits through it, and audit replay re-commits each logged record
through it, so the two accept exactly the same transactions.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import struct
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .clock import SimClock
from .errors import (
    AlreadyEnrolledError,
    AssetConflictError,
    AssetNotFoundError,
    ChaincodeError,
    InvalidTransactionError,
    LedgerError,
    NoSuchChannelError,
    UnauthorizedError,
)

DEFAULT_CHANNEL = "pol"
MEMBERSHIP_CHANNEL = "_members"
ENROLL_TX_TYPE = "ENROLL"
ASSET_CREATE = "ASSET_CREATE"
ASSET_UPDATE = "ASSET_UPDATE"
ASSET_DELETE = "ASSET_DELETE"

CERT_VALIDITY_NS = 365 * 24 * 3600 * 10**9  # one year of simulated time
COMMIT_LATENCY_NS = 1_000_000  # 1 ms per ordered commit


class Role(str, Enum):
    UAV = "UAV"
    PLATFORM = "PLATFORM"
    AUTHORITY = "AUTHORITY"


# -- canonical byte encodings -------------------------------------------------

def lp(data: bytes) -> bytes:
    """Length-prefixed bytes (unsigned 16-bit big-endian prefix)."""
    if len(data) > 0xFFFF:
        raise ValueError("field too long for 16-bit length prefix")
    return struct.pack(">H", len(data)) + data


def lps(text: str) -> bytes:
    return lp(text.encode("utf-8"))


def read_lp(buf: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 2 > len(buf):
        raise ValueError("truncated length prefix")
    (n,) = struct.unpack_from(">H", buf, offset)
    offset += 2
    if offset + n > len(buf):
        raise ValueError("truncated length-prefixed field")
    return buf[offset:offset + n], offset + n


def read_lps(buf: bytes, offset: int) -> tuple[str, int]:
    raw, offset = read_lp(buf, offset)
    return raw.decode("utf-8"), offset


# -- identities ----------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    subject: str
    role: Role
    public_key: bytes
    valid_from: int
    valid_to: int
    issuer_signature: bytes

    def canonical_bytes(self) -> bytes:
        """Everything the issuer signs, in fixed field order."""
        return (
            lps(self.subject)
            + lps(self.role.value)
            + lp(self.public_key)
            + struct.pack(">QQ", self.valid_from, self.valid_to)
        )

    def encode(self) -> bytes:
        return self.canonical_bytes() + lp(self.issuer_signature)

    @staticmethod
    def decode(buf: bytes) -> "Certificate":
        subject, off = read_lps(buf, 0)
        role_name, off = read_lps(buf, off)
        public_key, off = read_lp(buf, off)
        if off + 16 > len(buf):
            raise ValueError("truncated certificate validity window")
        valid_from, valid_to = struct.unpack_from(">QQ", buf, off)
        off += 16
        signature, off = read_lp(buf, off)
        if off != len(buf):
            raise ValueError("trailing bytes after certificate")
        return Certificate(subject, Role(role_name), public_key, valid_from, valid_to, signature)


@dataclass(frozen=True)
class Identity:
    """An enrolled party: certificate plus the locally held signing key."""

    name: str
    role: Role
    public_key: bytes
    certificate: Certificate
    signing_key: Ed25519PrivateKey = field(repr=False, compare=False)

    def sign(self, data: bytes) -> bytes:
        return self.signing_key.sign(data)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


# -- ledger records ------------------------------------------------------------

@dataclass(frozen=True)
class Transaction:
    tx_id: bytes
    channel: str
    tx_type: str
    payload: bytes
    submitter: str
    timestamp: int
    signature: bytes

    def signed_bytes(self) -> bytes:
        return transaction_signed_bytes(self.channel, self.tx_type, self.payload, self.timestamp)


def transaction_signed_bytes(channel: str, tx_type: str, payload: bytes, timestamp: int) -> bytes:
    return lps(channel) + lps(tx_type) + lp(payload) + struct.pack(">Q", timestamp)


def compute_tx_id(channel: str, tx_type: str, payload: bytes, timestamp: int,
                  height: int, submitter: str) -> bytes:
    digest = hashlib.sha256(
        transaction_signed_bytes(channel, tx_type, payload, timestamp)
        + struct.pack(">Q", height)
        + lps(submitter)
    )
    return digest.digest()[:16]


@dataclass(frozen=True)
class ChannelEvent:
    channel: str
    height: int
    tx_type: str
    payload: bytes
    tx_id: bytes


@dataclass(frozen=True)
class Asset:
    asset_id: str
    data: bytes
    owner: str
    version: int


@dataclass(frozen=True)
class Receipt:
    height: int
    tx_id: bytes


class Subscription:
    """In-order, exactly-once feed of committed events for one subscriber."""

    def __init__(self, channel: str, tx_type_filter: Optional[str]):
        self.channel = channel
        self.tx_type_filter = tx_type_filter
        self._queue: deque[ChannelEvent] = deque()

    def _offer(self, event: ChannelEvent) -> None:
        if self.tx_type_filter is None or event.tx_type == self.tx_type_filter:
            self._queue.append(event)

    def poll(self) -> Optional[ChannelEvent]:
        return self._queue.popleft() if self._queue else None

    def drain(self) -> list[ChannelEvent]:
        out = list(self._queue)
        self._queue.clear()
        return out

    def __len__(self) -> int:
        return len(self._queue)


# -- chaincode -----------------------------------------------------------------

class AssetChaincode:
    """Minimal asset CRUD dispatched on commit.

    Handlers validate before mutating, so a rejected transaction leaves the
    state untouched.
    """

    TX_TYPES = (ASSET_CREATE, ASSET_UPDATE, ASSET_DELETE)

    def handles(self, tx_type: str) -> bool:
        return tx_type in self.TX_TYPES

    def apply(self, assets: dict[str, Asset], tx: Transaction) -> None:
        if tx.tx_type == ASSET_CREATE:
            asset_id, data = decode_asset_payload(tx.payload)
            if asset_id in assets:
                raise AssetConflictError(f"asset {asset_id!r} already exists")
            assets[asset_id] = Asset(asset_id, data, owner=tx.submitter, version=1)
        elif tx.tx_type == ASSET_UPDATE:
            asset_id, data = decode_asset_payload(tx.payload)
            current = assets.get(asset_id)
            if current is None:
                raise AssetNotFoundError(f"asset {asset_id!r} not found")
            if current.owner != tx.submitter:
                raise UnauthorizedError(
                    f"{tx.submitter!r} does not own asset {asset_id!r}"
                )
            assets[asset_id] = Asset(asset_id, data, current.owner, current.version + 1)
        elif tx.tx_type == ASSET_DELETE:
            asset_id = decode_asset_delete_payload(tx.payload)
            current = assets.get(asset_id)
            if current is None:
                raise AssetNotFoundError(f"asset {asset_id!r} not found")
            if current.owner != tx.submitter:
                raise UnauthorizedError(
                    f"{tx.submitter!r} does not own asset {asset_id!r}"
                )
            del assets[asset_id]


def encode_asset_payload(asset_id: str, data: bytes) -> bytes:
    return lps(asset_id) + lp(data)


def decode_asset_payload(payload: bytes) -> tuple[str, bytes]:
    try:
        asset_id, off = read_lps(payload, 0)
        data, off = read_lp(payload, off)
    except ValueError as exc:
        raise ChaincodeError(f"bad asset payload: {exc}") from None
    if off != len(payload):
        raise ChaincodeError("trailing bytes in asset payload")
    return asset_id, data


def encode_asset_delete_payload(asset_id: str) -> bytes:
    return lps(asset_id)


def decode_asset_delete_payload(payload: bytes) -> str:
    try:
        asset_id, off = read_lps(payload, 0)
    except ValueError as exc:
        raise ChaincodeError(f"bad asset delete payload: {exc}") from None
    if off != len(payload):
        raise ChaincodeError("trailing bytes in asset delete payload")
    return asset_id


# -- the ledger ----------------------------------------------------------------

# Channel admission is fixed, so an audit log alone decides every replay.
CHANNEL_ROLES: dict[str, frozenset[Role]] = {
    MEMBERSHIP_CHANNEL: frozenset({Role.AUTHORITY}),
    DEFAULT_CHANNEL: frozenset(Role),
}


class _Channel:
    def __init__(self, roles: frozenset[Role], chaincodes: list):
        self.roles = roles
        self.log: list[Transaction] = []
        self.assets: dict[str, Asset] = {}
        self.chaincodes = chaincodes


def _verify(public_key: bytes, signature: bytes, data: bytes, what: str) -> None:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
    except (InvalidSignature, ValueError):
        raise UnauthorizedError(f"{what} invalid") from None


class LedgerState:
    """Registry, channels and journal, changed only through commit().

    The live ledger and audit replay both admit transactions here, so a
    replay accepts exactly the records the live ledger accepted.
    """

    def __init__(self, chaincode_factory: Callable[[], list]):
        self.registry: dict[str, Certificate] = {}
        self.authority_public: Optional[bytes] = None
        # chaincode_factory gives the default channel's chaincode set; the
        # membership channel always runs the asset chaincode alone.
        self.channels = {
            name: _Channel(roles, chaincode_factory() if name == DEFAULT_CHANNEL
                           else [AssetChaincode()])
            for name, roles in CHANNEL_ROLES.items()
        }
        self.journal: list[tuple[int, Transaction]] = []  # (height, tx) in commit order

    def channel(self, name: str) -> _Channel:
        ch = self.channels.get(name)
        if ch is None:
            raise NoSuchChannelError(f"no such channel {name!r}")
        return ch

    def commit(self, tx: Transaction) -> int:
        """Admit tx at the next height of its channel and return that height.

        Identity checks use the registered certificate, never one the
        submitter presents; the first ENROLL on the membership channel
        bootstraps the self-signed authority. Any failure raises a
        LedgerError and leaves the state untouched.
        """
        ch = self.channel(tx.channel)
        height = len(ch.log) + 1
        try:
            tx_id = compute_tx_id(tx.channel, tx.tx_type, tx.payload, tx.timestamp,
                                  height, tx.submitter)
        except (ValueError, struct.error) as exc:
            raise InvalidTransactionError(f"unencodable transaction: {exc}") from None
        if tx_id != tx.tx_id:
            raise InvalidTransactionError("tx id mismatch")

        cert = self.registry.get(tx.submitter)
        enrollee = None
        if tx.channel == MEMBERSHIP_CHANNEL and tx.tx_type == ENROLL_TX_TYPE:
            try:
                enrollee = Certificate.decode(tx.payload)
            except ValueError as exc:
                raise InvalidTransactionError(f"bad certificate: {exc}") from None
            if enrollee.subject in self.registry:
                raise AlreadyEnrolledError(f"{enrollee.subject!r} is already enrolled")
            if self.authority_public is None:
                if enrollee.subject != tx.submitter or enrollee.role is not Role.AUTHORITY:
                    raise UnauthorizedError("first enrollment must be the self-signed authority")
                cert = enrollee
        if cert is None:
            raise UnauthorizedError(f"submitter {tx.submitter!r} not enrolled")
        if not cert.valid_from <= tx.timestamp <= cert.valid_to:
            raise UnauthorizedError(
                f"certificate of {tx.submitter!r} not valid at {tx.timestamp}"
            )
        if cert.role not in ch.roles:
            raise UnauthorizedError(
                f"role {cert.role.value} not admitted to channel {tx.channel!r}"
            )
        if self.journal and tx.timestamp < self.journal[-1][1].timestamp:
            raise InvalidTransactionError("timestamp earlier than the previous commit")
        _verify(cert.public_key, tx.signature, tx.signed_bytes(), "transaction signature")
        if enrollee is not None:
            _verify(self.authority_public or enrollee.public_key,
                    enrollee.issuer_signature, enrollee.canonical_bytes(),
                    "certificate signature")

        for cc in ch.chaincodes:
            if cc.handles(tx.tx_type):
                cc.apply(ch.assets, tx)  # a LedgerError aborts the commit
        if enrollee is not None:
            self.registry[enrollee.subject] = enrollee
            if self.authority_public is None:
                self.authority_public = enrollee.public_key
        ch.log.append(tx)
        self.journal.append((height, tx))
        return height


def _derive_signing_key(key_material: bytes, name: str) -> Ed25519PrivateKey:
    seed = hashlib.sha256(key_material + b"|" + name.encode("utf-8")).digest()
    return Ed25519PrivateKey.from_private_bytes(seed)


def _raw_public_bytes(key: Ed25519PrivateKey) -> bytes:
    return key.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


class Ledger:
    """Ordering service, certificate authority, chaincode host and event hub.

    submit_transaction builds and signs a transaction; LedgerState.commit
    alone decides whether it is admitted.
    """

    def __init__(self, seed: int = 0, clock: Optional[SimClock] = None,
                 authority_name: str = "authority"):
        self.clock = clock if clock is not None else SimClock()
        self._key_material = hashlib.sha256(
            b"uwbpol-ledger-keys|" + int(seed).to_bytes(8, "big", signed=False)
        ).digest()
        self._lock = threading.Lock()
        self._state = LedgerState(lambda: [AssetChaincode()])
        self._subscribers: dict[str, list[Subscription]] = {name: [] for name in CHANNEL_ROLES}

        self._authority_key = _derive_signing_key(self._key_material, authority_name)
        self.authority = self._issue(authority_name, Role.AUTHORITY, self._authority_key)
        self.submit_transaction(self.authority, MEMBERSHIP_CHANNEL, ENROLL_TX_TYPE,
                                self.authority.certificate.encode())

    # -- identities --

    def _issue(self, name: str, role: Role, key: Ed25519PrivateKey) -> Identity:
        public = _raw_public_bytes(key)
        valid_from = self.clock.now_ns
        unsigned = Certificate(name, role, public, valid_from, valid_from + CERT_VALIDITY_NS, b"")
        cert = replace(unsigned,
                       issuer_signature=self._authority_key.sign(unsigned.canonical_bytes()))
        return Identity(name, role, public, cert, key)

    def enroll_identity(self, name: str, role: Role) -> Identity:
        """Create a keypair and authority-signed certificate for name and enroll it."""
        identity = self._issue(name, role, _derive_signing_key(self._key_material, name))
        self.submit_transaction(self.authority, MEMBERSHIP_CHANNEL, ENROLL_TX_TYPE,
                                identity.certificate.encode())
        return identity

    def verify_identity(self, cert: Certificate, now_ns: Optional[int] = None) -> VerificationResult:
        """Check issuer signature, validity window and membership."""
        try:
            Ed25519PublicKey.from_public_bytes(self.authority.public_key).verify(
                cert.issuer_signature, cert.canonical_bytes()
            )
        except (InvalidSignature, ValueError):
            return VerificationResult(False, "unknown-issuer")
        now = self.clock.now_ns if now_ns is None else now_ns
        if now < cert.valid_from:
            return VerificationResult(False, "not-yet-valid")
        if now > cert.valid_to:
            return VerificationResult(False, "expired")
        registered = self._state.registry.get(cert.subject)
        if registered is None or registered.public_key != cert.public_key:
            return VerificationResult(False, "unknown-subject")
        return VerificationResult(True, "ok")

    # -- channels --

    def install_chaincode(self, channel: str, chaincode) -> None:
        self._state.channel(channel).chaincodes.append(chaincode)

    def height(self, channel: str) -> int:
        return len(self._state.channel(channel).log)

    def transactions(self, channel: str) -> tuple[Transaction, ...]:
        return tuple(self._state.channel(channel).log)

    # -- transactions --

    def submit_transaction(self, identity: Identity, channel: str, tx_type: str,
                           payload: bytes) -> Receipt:
        """Sign one transaction as identity, commit it, and fan out its event."""
        with self._lock:
            timestamp = self.clock.now_ns
            height = self.height(channel) + 1
            signature = identity.sign(
                transaction_signed_bytes(channel, tx_type, payload, timestamp)
            )
            tx = Transaction(
                tx_id=compute_tx_id(channel, tx_type, payload, timestamp, height, identity.name),
                channel=channel,
                tx_type=tx_type,
                payload=payload,
                submitter=identity.name,
                timestamp=timestamp,
                signature=signature,
            )
            self._state.commit(tx)
            self.clock.advance(COMMIT_LATENCY_NS)
            event = ChannelEvent(channel, height, tx_type, payload, tx.tx_id)
            for sub in self._subscribers[channel]:
                sub._offer(event)
            return Receipt(height, tx.tx_id)

    def subscribe(self, channel: str, tx_type_filter: Optional[str] = None) -> Subscription:
        """New event feed starting at the channel's current height."""
        self._state.channel(channel)
        sub = Subscription(channel, tx_type_filter)
        self._subscribers[channel].append(sub)
        return sub

    # -- chaincode state --

    def query_asset(self, channel: str, asset_id: str) -> Asset:
        """Read committed state directly; no transaction is recorded."""
        asset = self._state.channel(channel).assets.get(asset_id)
        if asset is None:
            raise AssetNotFoundError(f"asset {asset_id!r} not found")
        return asset

    def assets_snapshot(self, channel: str) -> dict[str, Asset]:
        return dict(self._state.channel(channel).assets)

    # -- audit log --

    def write_audit_log(self, path) -> None:
        """Append-only style dump: one tab-separated record per commit."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for height, tx in self._state.journal:
                fh.write(format_audit_record(height, tx) + "\n")


def format_audit_record(height: int, tx: Transaction) -> str:
    return "\t".join((
        str(height),
        tx.tx_id.hex(),
        tx.channel,
        tx.tx_type,
        tx.submitter,
        str(tx.timestamp),
        base64.b64encode(tx.payload).decode("ascii"),
        base64.b64encode(tx.signature).decode("ascii"),
    ))


# -- audit replay -----------------------------------------------------------------

@dataclass
class ReplayResult:
    ok: bool
    records: int
    message: str
    failure_height: Optional[int] = None
    failure_channel: Optional[str] = None
    assets: dict[str, dict[str, Asset]] = field(default_factory=dict)


def replay_audit_log(
    path,
    chaincode_factory: Optional[Callable[[], list]] = None,
) -> ReplayResult:
    """Re-run an audit log from scratch through LedgerState.commit.

    Each record is parsed, its per-channel height checked, and then
    committed on the same fixed channels with the same checks as a live
    commit, so replay accepts exactly what the live ledger accepted. Any
    LedgerError stops the replay with the record's height and channel.
    chaincode_factory gives the default channel's chaincode set (default:
    the asset chaincode alone); pass the set the live ledger ran with, as
    `uwbpol replay` passes `pol.standard_chaincodes`.
    """
    state = LedgerState(chaincode_factory or (lambda: [AssetChaincode()]))

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        return ReplayResult(False, 0, f"cannot read audit log: {exc}")

    if raw and not raw.endswith("\n"):
        # A well-formed log ends every record with a newline.
        return ReplayResult(False, 0, "unexpected end of log (truncated final record)")

    for lineno, line in enumerate(raw.splitlines(), start=1):
        records = len(state.journal)
        parts = line.split("\t")
        if len(parts) != 8:
            return ReplayResult(False, records,
                                f"unexpected end of log (malformed record at line {lineno})")
        try:
            height = int(parts[0])
            tx = Transaction(
                tx_id=bytes.fromhex(parts[1]),
                channel=parts[2],
                tx_type=parts[3],
                payload=base64.b64decode(parts[6], validate=True),
                submitter=parts[4],
                timestamp=int(parts[5]),
                signature=base64.b64decode(parts[7], validate=True),
            )
        except (ValueError, binascii.Error) as exc:
            return ReplayResult(False, records,
                                f"unparseable record at line {lineno}: {exc}")
        try:
            expected_height = len(state.channel(tx.channel).log) + 1
            if height != expected_height:
                raise InvalidTransactionError(
                    f"height gap on channel {tx.channel!r}: got {height}, "
                    f"expected {expected_height}"
                )
            state.commit(tx)
        except LedgerError as exc:
            return ReplayResult(False, records, str(exc),
                                failure_height=height, failure_channel=tx.channel)

    assets = {name: dict(ch.assets) for name, ch in state.channels.items()}
    return ReplayResult(True, len(state.journal), "ok", assets=assets)
