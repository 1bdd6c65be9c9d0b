"""Gossip-flooded backend: signed messages, quorum of signatures to output.

RB here is initial -> signed echoes -> quorum of echo signatures; WBA is a
single round of signed votes.  With dissemination time g for one gossiped
message, WBA completes within g of unanimous input and RB within 2g of the
proposer's input.

In digest mode echoes carry a fixed-size digest of the value instead of the
value itself; an output then additionally requires the matching initial,
which gossip is already spreading at least as fast as the echoes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from .core import Params, LeaderSchedule, is_validator
from .subproto import InstanceKey, Kind, LocalInput, Recv, GossipSend, Output

INITIAL = "initial"
ECHO = "echo"
VOTE = "vote"


def canonical(payload: object) -> bytes:
    """Stable byte encoding used for both digests and signatures."""
    return _CANONICAL.encode(payload).encode()


def _encode_opaque(obj: object):
    if hasattr(obj, "__dataclass_fields__"):
        return {k: getattr(obj, k) for k in obj.__dataclass_fields__}
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


# Built once: json.dumps with these arguments builds an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              default=_encode_opaque)


def digest(value: object) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


class SignatureScheme:
    """Deterministic keyed-hash signatures for simulation.

    Per-validator secrets are fixed at construction and never change.
    Correctness of the unforgeability assumption is enforced at the API
    boundary: adversary drivers only ever hold a handle that signs with
    their own id, so a signature naming another signer cannot verify.
    """

    def __init__(self, seed: int, n: int):
        self._secrets = [
            hashlib.sha256(f"key:{seed}:{i}".encode()).digest() for i in range(n)
        ]
        self.n = n

    def sign(self, signer: int, payload: bytes) -> str:
        if not 0 <= signer < self.n:
            raise ValueError(f"no key for signer {signer}")
        return hashlib.sha256(self._secrets[signer] + payload).hexdigest()[:16]

    def verify(self, signer: int, payload: bytes, sig: str) -> bool:
        if not 0 <= signer < self.n:
            return False
        return self.sign(signer, payload) == sig


@dataclass(frozen=True)
class SignedMsg:
    instance: InstanceKey
    kind: str
    payload: object
    signer: int
    sig: str

    def __hash__(self) -> int:
        # Equal messages have equal sigs, so this agrees with __eq__; it
        # spares the simulator's relay dedup re-hashing the nested payload.
        # A forged copy (same sig, another signer) hashes alike but stays
        # unequal.
        return hash(self.sig)


def signed_payload(instance: InstanceKey, kind: str, payload: object) -> bytes:
    # The signature binds the instance and message kind, not just the value,
    # so a vote for one round cannot be replayed into another.
    return canonical([instance.kind.value, instance.round, kind, payload])


def make_signed(scheme: SignatureScheme, signer: int, instance: InstanceKey,
                kind: str, payload: object) -> SignedMsg:
    sig = scheme.sign(signer, signed_payload(instance, kind, payload))
    return SignedMsg(instance, kind, payload, signer, sig)


class GossipRb:
    """One gossip-RB instance at one node."""

    def __init__(self, key: InstanceKey, params: Params, proposer: int,
                 self_id: int, scheme: SignatureScheme, digest_mode: bool = False):
        self.key = key
        self.params = params
        self.proposer = proposer
        self.self_id = self_id
        self.scheme = scheme
        self.digest_mode = digest_mode
        self.initial_value: object = None
        self.has_initial = False
        self.signed_echo = False
        self.delivered = False
        self.echo_signers: dict[object, set[int]] = {}
        # First echo per signer counts; later conflicting ones are kept as
        # equivocation evidence but never tallied.
        self._echoed_by: dict[int, object] = {}
        self.equivocations: dict[int, list[object]] = {}
        self.invalid_sigs = 0

    def _key_of(self, value: object) -> object:
        return digest(value) if self.digest_mode else value

    def step(self, event: object) -> list:
        if isinstance(event, LocalInput):
            if self.self_id != self.proposer:
                return []
            return [GossipSend(make_signed(self.scheme, self.self_id, self.key,
                                           INITIAL, event.value))]
        assert isinstance(event, Recv)
        msg = event.msg
        if not isinstance(msg, SignedMsg) or msg.instance != self.key:
            return []
        if not self.scheme.verify(msg.signer, signed_payload(msg.instance, msg.kind,
                                                             msg.payload), msg.sig):
            self.invalid_sigs += 1
            return []
        if msg.kind == INITIAL:
            return self._on_initial(msg)
        if msg.kind == ECHO:
            return self._on_echo(msg)
        return []

    def _on_initial(self, msg: SignedMsg) -> list:
        if msg.signer != self.proposer:
            return []
        out = []
        if not self.has_initial:
            self.has_initial = True
            self.initial_value = msg.payload
            if is_validator(self.self_id, self.params) and not self.signed_echo:
                self.signed_echo = True
                out.append(GossipSend(make_signed(self.scheme, self.self_id, self.key,
                                                  ECHO, self._key_of(msg.payload))))
        elif msg.payload != self.initial_value:
            self.equivocations.setdefault(msg.signer, []).append(msg.payload)
        out.extend(self._try_output())
        return out

    def _on_echo(self, msg: SignedMsg) -> list:
        if not is_validator(msg.signer, self.params):
            return []
        prior = self._echoed_by.get(msg.signer)
        if prior is not None:
            if prior != msg.payload:
                self.equivocations.setdefault(msg.signer, []).append(msg.payload)
            return []
        self._echoed_by[msg.signer] = msg.payload
        self.echo_signers.setdefault(msg.payload, set()).add(msg.signer)
        return self._try_output()

    def _try_output(self) -> list:
        if self.delivered:
            return []
        q = self.params.quorum
        for payload, signers in self.echo_signers.items():
            if len(signers) < q:
                continue
            if self.digest_mode:
                if self.has_initial and digest(self.initial_value) == payload:
                    self.delivered = True
                    return [Output(self.initial_value)]
                # quorum reached but value unknown; wait for the initial
                continue
            self.delivered = True
            return [Output(payload)]
        return []


class GossipWba:
    """One gossip-WBA instance at one node: a single signed-vote round."""

    def __init__(self, key: InstanceKey, params: Params, self_id: int,
                 scheme: SignatureScheme):
        self.key = key
        self.params = params
        self.self_id = self_id
        self.scheme = scheme
        self.signed_vote = False
        self.delivered = False
        self.vote_signers: dict[int, set[int]] = {}
        self._voted_by: dict[int, int] = {}
        self.equivocations: dict[int, list[object]] = {}
        self.invalid_sigs = 0

    def step(self, event: object) -> list:
        if isinstance(event, LocalInput):
            b = event.value
            if (b not in (0, 1) or self.signed_vote
                    or not is_validator(self.self_id, self.params)):
                return []
            self.signed_vote = True
            return [GossipSend(make_signed(self.scheme, self.self_id, self.key,
                                           VOTE, b))]
        assert isinstance(event, Recv)
        msg = event.msg
        if not isinstance(msg, SignedMsg) or msg.instance != self.key:
            return []
        if msg.kind != VOTE or msg.payload not in (0, 1):
            return []
        if not self.scheme.verify(msg.signer, signed_payload(msg.instance, msg.kind,
                                                             msg.payload), msg.sig):
            self.invalid_sigs += 1
            return []
        if not is_validator(msg.signer, self.params):
            return []
        prior = self._voted_by.get(msg.signer)
        if prior is not None:
            if prior != msg.payload:
                self.equivocations.setdefault(msg.signer, []).append(msg.payload)
            return []
        self._voted_by[msg.signer] = msg.payload
        self.vote_signers.setdefault(msg.payload, set()).add(msg.signer)
        if not self.delivered and len(self.vote_signers[msg.payload]) >= self.params.quorum:
            self.delivered = True
            return [Output(msg.payload)]
        return []


def machine_factory(params: Params, schedule: LeaderSchedule, self_id: int,
                    scheme: SignatureScheme,
                    digest_mode: bool = False) -> Callable[[InstanceKey], object]:
    def make(key: InstanceKey):
        if key.kind is Kind.RB:
            return GossipRb(key, params, schedule.leader_of(key.round), self_id,
                            scheme, digest_mode)
        return GossipWba(key, params, self_id, scheme)
    return make
