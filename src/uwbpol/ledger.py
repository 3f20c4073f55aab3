"""Simulated permissioned ledger.

A single in-process, single-threaded ordering service with immediate
finality stands in for a real blockchain network: certificate-based
identities issued by a built-in authority, two fixed channels carrying
totally ordered transactions (`_members`, open to the authority alone, and
`pol`, open to every role) and chaincode dispatched on commit. As with
Fabric's deliver service, the ledger keeps no queue per client: a client
reads a channel's committed records from a height that it tracks itself.

Signatures use the scheme of Hyperledger Fabric's membership service: ECDSA
over P-256 with SHA-256. Public keys are 65-byte uncompressed X9.62 points,
as in Fabric's X.509 certificates. Nonces come from RFC 6979, and signing
keys derive from the ledger seed, so a run's audit log is reproducible byte
for byte. A signature is stored as a fixed 64-byte r||s with s normalized to
the low half of the group order. Verification refuses any other length and
any high s, as Fabric's crypto provider does, so a committed signature has
exactly one accepted encoding.

Every admission decision is made in one place, LedgerState.commit: the live
ledger commits through it, and audit replay re-commits each logged record
through it, so the two accept exactly the same transactions.

As in Fabric, each tx type on a channel has exactly one chaincode, and
chaincode state lives only in the world state: the channel's dict of assets.
Chaincodes hold no fields, so live commit and replay rebuild the same dict.
AssetChaincode refuses PolChaincode's key ranges (RESERVED_PREFIXES), so no
client writes them.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
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
# World-state key ranges that only PolChaincode writes: one session asset per
# request, and one entry per session code it pins.
SESSION_ASSET_PREFIX = "pol-session-"
CODE_ASSET_PREFIX = "pol-code-"
RESERVED_PREFIXES = (SESSION_ASSET_PREFIX, CODE_ASSET_PREFIX)

CERT_VALIDITY_NS = 365 * 24 * 3600 * 10**9  # one year of simulated time
COMMIT_LATENCY_NS = 1_000_000  # 1 ms per ordered commit

_CURVE = ec.SECP256R1()
_ECDSA = ec.ECDSA(hashes.SHA256(), deterministic_signing=True)
_ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551  # of P-256


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
    signing_key: ec.EllipticCurvePrivateKey = field(repr=False, compare=False)

    def sign(self, data: bytes) -> bytes:
        return _sign(self.signing_key, data)


def _sign(key: ec.EllipticCurvePrivateKey, data: bytes) -> bytes:
    """RFC 6979 ECDSA signature of data as 64 bytes r||s, with low s."""
    r, s = decode_dss_signature(key.sign(data, _ECDSA))
    return r.to_bytes(32, "big") + min(s, _ORDER - s).to_bytes(32, "big")


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


def compute_tx_id(signed: bytes, height: int, submitter: str) -> bytes:
    """A transaction's id: SHA-256 of its signed bytes, height and submitter, cut to 16 bytes."""
    digest = hashlib.sha256(signed + struct.pack(">Q", height) + lps(submitter))
    return digest.digest()[:16]


@dataclass(frozen=True)
class Asset:
    asset_id: str
    data: bytes
    owner: str  # the identity that may write the next version
    version: int


@dataclass(frozen=True)
class Receipt:
    height: int
    tx_id: bytes


# -- chaincode -----------------------------------------------------------------

class AssetChaincode:
    """Minimal asset CRUD dispatched on commit.

    A client may create any id outside RESERVED_PREFIXES, which PolChaincode
    alone writes, and owns what it creates: only the owner may update or
    delete it. Handlers validate before mutating, so a rejected transaction
    leaves the state untouched.
    """

    TX_TYPES = (ASSET_CREATE, ASSET_UPDATE, ASSET_DELETE)

    def apply(self, assets: dict[str, Asset], tx: Transaction) -> None:
        # The payload is encode_asset_payload's, or encode_asset_delete_payload's.
        try:
            asset_id, off = read_lps(tx.payload, 0)
            data, off = (b"", off) if tx.tx_type == ASSET_DELETE else read_lp(tx.payload, off)
        except ValueError as exc:
            raise ChaincodeError(f"bad asset payload: {exc}") from None
        if off != len(tx.payload):
            raise ChaincodeError("trailing bytes in asset payload")
        if asset_id.startswith(RESERVED_PREFIXES):
            raise UnauthorizedError(f"asset {asset_id!r} is in a key range no client may write")
        current = assets.get(asset_id)
        if tx.tx_type == ASSET_CREATE:
            if current is not None:
                raise AssetConflictError(f"asset {asset_id!r} already exists")
            assets[asset_id] = Asset(asset_id, data, owner=tx.submitter, version=1)
            return
        if current is None:
            raise AssetNotFoundError(f"asset {asset_id!r} not found")
        if current.owner != tx.submitter:
            raise UnauthorizedError(f"{tx.submitter!r} does not own asset {asset_id!r}")
        if tx.tx_type == ASSET_UPDATE:
            assets[asset_id] = Asset(asset_id, data, current.owner, current.version + 1)
        else:
            del assets[asset_id]


def encode_asset_payload(asset_id: str, data: bytes) -> bytes:
    return lps(asset_id) + lp(data)


def encode_asset_delete_payload(asset_id: str) -> bytes:
    return lps(asset_id)


# -- the ledger ----------------------------------------------------------------

# Channel admission is fixed, so an audit log alone decides every replay.
CHANNEL_ROLES: dict[str, frozenset[Role]] = {
    MEMBERSHIP_CHANNEL: frozenset({Role.AUTHORITY}),
    DEFAULT_CHANNEL: frozenset(Role),
}


class _Channel:
    def __init__(self, chaincodes: list):
        self.log: list[Transaction] = []
        self.assets: dict[str, Asset] = {}
        self.chaincodes: dict[str, object] = {}  # tx type -> its one chaincode
        for chaincode in chaincodes:
            self.install(chaincode)

    def install(self, chaincode) -> None:
        taken = [t for t in chaincode.TX_TYPES if t in self.chaincodes]
        if taken:
            raise ValueError(f"tx types {taken} already have a chaincode")
        self.chaincodes.update(dict.fromkeys(chaincode.TX_TYPES, chaincode))


def _verify(key: ec.EllipticCurvePublicKey, signature: bytes, data: bytes, what: str) -> None:
    """Refuse unless signature is a 64-byte low-s r||s over data under key."""
    if len(signature) == 64:
        r = int.from_bytes(signature[:32], "big")
        s = int.from_bytes(signature[32:], "big")
        if 0 < r < _ORDER and 0 < s <= _ORDER // 2:
            try:
                key.verify(encode_dss_signature(r, s), data, _ECDSA)
                return
            except InvalidSignature:
                pass
    raise UnauthorizedError(f"{what} invalid")


def _public_key(encoded: bytes) -> ec.EllipticCurvePublicKey:
    """The P-256 point of a 65-byte uncompressed X9.62 encoding."""
    if len(encoded) == 65 and encoded[0] == 4:
        try:
            return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, encoded)
        except ValueError:
            pass
    raise UnauthorizedError("enrolled public key is not an uncompressed P-256 point")


def _check_log_field(what: str, text: str) -> None:
    """Refuse text that would not survive as one field of one audit-log record.

    Replay splits the log with str.splitlines and each record on tabs.
    """
    if "\t" in text or len(f".{text}.".splitlines()) != 1:
        raise InvalidTransactionError(f"{what} {text!r} contains a tab or line break")


class LedgerState:
    """Registry, channels and journal, changed only through commit().

    The live ledger and audit replay both admit transactions here, so a
    replay accepts exactly the records the live ledger accepted.
    """

    def __init__(self, chaincode_factory: Callable[[], list]):
        self.registry: dict[str, Certificate] = {}
        # Each registered certificate's key, parsed once when it is enrolled.
        self.keys: dict[str, ec.EllipticCurvePublicKey] = {}
        self.authority_key: Optional[ec.EllipticCurvePublicKey] = None
        # chaincode_factory gives the default channel's chaincode set; the
        # membership channel always runs the asset chaincode alone.
        self.channels = {
            name: _Channel(chaincode_factory() if name == DEFAULT_CHANNEL
                           else [AssetChaincode()])
            for name in CHANNEL_ROLES
        }
        self.journal: list[tuple[int, Transaction]] = []  # (height, tx) in commit order

    def channel(self, name: str) -> _Channel:
        ch = self.channels.get(name)
        if ch is None:
            raise NoSuchChannelError(f"no such channel {name!r}")
        return ch

    def commit(self, tx: Transaction) -> int:
        """Admit tx at the next height of its channel and return that height.

        The signed bytes are built here, once, from tx's own fields; they
        give both the tx id and the bytes the signature must cover. Identity
        checks use the registered certificate, never one the submitter
        presents; the first ENROLL on the membership channel bootstraps the
        self-signed authority. An ENROLL's key is parsed here, once, and
        must be an uncompressed P-256 point. Every other record needs the
        chaincode that its channel maps its tx type to. Any failure
        raises a LedgerError and leaves the state untouched.
        """
        _check_log_field("submitter", tx.submitter)
        _check_log_field("tx type", tx.tx_type)
        ch = self.channel(tx.channel)
        height = len(ch.log) + 1
        try:
            signed = tx.signed_bytes()
            tx_id = compute_tx_id(signed, height, tx.submitter)
        except (ValueError, struct.error) as exc:
            raise InvalidTransactionError(f"unencodable transaction: {exc}") from None
        if tx_id != tx.tx_id:
            raise InvalidTransactionError("tx id mismatch")

        cert = self.registry.get(tx.submitter)
        key = self.keys.get(tx.submitter)
        enrollee = None
        if tx.channel == MEMBERSHIP_CHANNEL and tx.tx_type == ENROLL_TX_TYPE:
            try:
                enrollee = Certificate.decode(tx.payload)
            except ValueError as exc:
                raise InvalidTransactionError(f"bad certificate: {exc}") from None
            _check_log_field("enrolled subject", enrollee.subject)
            if enrollee.subject in self.registry:
                raise AlreadyEnrolledError(f"{enrollee.subject!r} is already enrolled")
            enrollee_key = _public_key(enrollee.public_key)
            if self.authority_key is None:
                if enrollee.subject != tx.submitter or enrollee.role is not Role.AUTHORITY:
                    raise UnauthorizedError("first enrollment must be the self-signed authority")
                cert, key = enrollee, enrollee_key
        if cert is None:
            raise UnauthorizedError(f"submitter {tx.submitter!r} not enrolled")
        if not cert.valid_from <= tx.timestamp <= cert.valid_to:
            raise UnauthorizedError(
                f"certificate of {tx.submitter!r} not valid at {tx.timestamp}"
            )
        if cert.role not in CHANNEL_ROLES[tx.channel]:
            raise UnauthorizedError(
                f"role {cert.role.value} not admitted to channel {tx.channel!r}"
            )
        if self.journal and tx.timestamp < self.journal[-1][1].timestamp:
            raise InvalidTransactionError("timestamp earlier than the previous commit")
        _verify(key, tx.signature, signed, "transaction signature")
        if enrollee is not None:
            _verify(self.authority_key or enrollee_key,
                    enrollee.issuer_signature, enrollee.canonical_bytes(),
                    "certificate signature")

        chaincode = ch.chaincodes.get(tx.tx_type)
        if chaincode is not None:
            chaincode.apply(ch.assets, tx)  # a LedgerError aborts the commit
        elif enrollee is None:
            raise ChaincodeError(
                f"no chaincode on channel {tx.channel!r} handles {tx.tx_type!r}")
        if enrollee is not None:
            self.registry[enrollee.subject] = enrollee
            self.keys[enrollee.subject] = enrollee_key
            if self.authority_key is None:
                self.authority_key = enrollee_key
        ch.log.append(tx)
        self.journal.append((height, tx))
        return height


def issue_identity(seed: int, name: str, role: Role, valid_from: int,
                   authority: Optional[Identity] = None) -> Identity:
    """name's keypair and certificate as a ledger built with seed issues them.

    The keypair derives from (seed, name) alone; no randomness is drawn.
    The certificate is valid for CERT_VALIDITY_NS from valid_from and is
    signed by authority, or by the new key itself when authority is None
    (an authority's own certificate).
    """
    key_material = hashlib.sha256(
        b"uwbpol-ledger-keys|" + int(seed).to_bytes(8, "big", signed=False)
    ).digest()
    digest = hashlib.sha256(key_material + b"|" + name.encode("utf-8")).digest()
    key = ec.derive_private_key(int.from_bytes(digest, "big") % (_ORDER - 1) + 1, _CURVE)
    public = key.public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.UncompressedPoint)
    unsigned = Certificate(name, role, public, valid_from, valid_from + CERT_VALIDITY_NS, b"")
    issuer = key if authority is None else authority.signing_key
    cert = replace(unsigned, issuer_signature=_sign(issuer, unsigned.canonical_bytes()))
    return Identity(name, role, public, cert, key)


class Ledger:
    """Ordering service, certificate authority and chaincode host.

    submit_transaction builds and signs a transaction; LedgerState.commit
    alone decides whether it is admitted. Clients read committed records by
    height through transactions(). A ledger belongs to one thread: nothing
    in it locks, so callers on other threads must not share it.
    """

    def __init__(self, seed: int = 0, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._seed = seed
        self._state = LedgerState(lambda: [AssetChaincode()])

        self.authority = issue_identity(seed, "authority", Role.AUTHORITY, self.clock.now_ns)
        self.submit_transaction(self.authority, MEMBERSHIP_CHANNEL, ENROLL_TX_TYPE,
                                self.authority.certificate.encode())

    # -- identities --

    def enroll_identity(self, name: str, role: Role) -> Identity:
        """Create a keypair and authority-signed certificate for name and enroll it."""
        identity = issue_identity(self._seed, name, role, self.clock.now_ns, self.authority)
        self.submit_transaction(self.authority, MEMBERSHIP_CHANNEL, ENROLL_TX_TYPE,
                                identity.certificate.encode())
        return identity

    # -- channels --

    def install_chaincode(self, channel: str, chaincode) -> None:
        self._state.channel(channel).install(chaincode)

    def height(self, channel: str) -> int:
        return len(self._state.channel(channel).log)

    def transactions(self, channel: str, start: int = 0) -> tuple[Transaction, ...]:
        """The channel's committed records above height start, in commit order."""
        log = self._state.channel(channel).log
        if not 0 <= start <= len(log):
            raise ValueError(f"start {start!r} is outside [0, {len(log)}] on channel {channel!r}")
        return tuple(log[start:])

    # -- transactions --

    def submit_transaction(self, identity: Identity, channel: str, tx_type: str,
                           payload: bytes) -> Receipt:
        """Sign one transaction as identity and commit it."""
        timestamp = self.clock.now_ns
        height = self.height(channel) + 1
        try:
            signed = transaction_signed_bytes(channel, tx_type, payload, timestamp)
            tx_id = compute_tx_id(signed, height, identity.name)
        except (ValueError, struct.error) as exc:  # a field too long, a clock past 2^64 ns
            raise InvalidTransactionError(f"unencodable transaction: {exc}") from None
        tx = Transaction(
            tx_id=tx_id,
            channel=channel,
            tx_type=tx_type,
            payload=payload,
            submitter=identity.name,
            timestamp=timestamp,
            signature=identity.sign(signed),
        )
        self._state.commit(tx)
        self.clock.advance(COMMIT_LATENCY_NS)
        return Receipt(height, tx_id)

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


def replay_audit_log(path, chaincode_factory: Callable[[], list]) -> ReplayResult:
    """Re-run an audit log from scratch through LedgerState.commit.

    Each record must read exactly as format_audit_record writes it, has its
    per-channel height checked, and is then committed on the same fixed
    channels with the same checks as a live commit, so replay accepts
    exactly what the live ledger accepted. Any LedgerError stops the replay
    with the record's height and channel.
    chaincode_factory gives the default channel's chaincode set. It must be
    the set the live ledger ran with, as `uwbpol replay` passes
    `pol.standard_chaincodes` for logs that `sim.run` wrote; a smaller set
    would accept records that the live ledger refused.
    """
    state = LedgerState(chaincode_factory)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        if format_audit_record(height, tx) != line:
            return ReplayResult(False, records,
                                f"non-canonical record at line {lineno}")
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
