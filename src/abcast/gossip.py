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
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .core import Params, LeaderSchedule, hashable, is_validator
from .subproto import RB, ECHO, INITIAL, VOTE, Input, InstanceKey, Output
from .trace import compact_encoder


def canonical(payload: object) -> bytes:
    """Stable byte encoding used for both digests and signatures."""
    return _canonical(payload).encode()


def _encode_opaque(obj: object):
    if hasattr(obj, "__dataclass_fields__"):
        return {k: getattr(obj, k) for k in obj.__dataclass_fields__}
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


_canonical = compact_encoder(_encode_opaque)


def digest(value: object) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


class SignatureScheme:
    """Deterministic keyed-hash signatures for simulation.

    Per-validator secrets are fixed at construction and never change.
    Correctness of the unforgeability assumption is enforced at the API
    boundary: adversary drivers only ever hold a handle that signs with
    their own id, so a signature naming another signer cannot verify.
    Each signature made and each verdict given is kept, so a flooded
    message is hashed once, where it is signed.
    """

    def __init__(self, seed: int, n: int):
        self._secrets = [
            hashlib.sha256(f"key:{seed}:{i}".encode()).digest() for i in range(n)
        ]
        self.n = n
        self._verdicts: dict = {}

    def sign(self, signer: int, payload: bytes) -> str:
        if not 0 <= signer < self.n:
            raise ValueError(f"no key for signer {signer}")
        sig = hashlib.sha256(self._secrets[signer] + payload).hexdigest()[:16]
        self._verdicts[signer, sig, payload] = True
        return sig

    def verify(self, signer: int, payload: bytes, sig: str) -> bool:
        key = (signer, sig, payload)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = (0 <= signer < self.n
                                             and self.sign(signer, payload) == sig)
        return verdict


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

    @cached_property
    def signed_bytes(self) -> bytes:
        """The bytes the signature covers, encoded once per message object
        from its own fields; every receipt still asks `verify`."""
        return signed_payload(self.instance, self.kind, self.payload)


def signed_payload(instance: InstanceKey, kind: str, payload: object) -> bytes:
    # The signature binds the instance and message kind, not just the value,
    # so a vote for one round cannot be replayed into another.
    return canonical([instance.kind, instance.round, kind, payload])


def make_signed(scheme: SignatureScheme, signer: int, instance: InstanceKey,
                kind: str, payload: object, claim: int | None = None) -> SignedMsg:
    """Signed with `signer`'s key; a forgery names `claim` as its signer."""
    data = signed_payload(instance, kind, payload)
    msg = SignedMsg(instance, kind, payload, signer if claim is None else claim,
                    scheme.sign(signer, data))
    msg.__dict__["signed_bytes"] = data      # what the property would compute
    return msg


class _SignedMachine:
    """The signer dedup both gossip machines share: a validator's first
    payload of a kind counts; a different later one is kept in
    `equivocations` as evidence but never tallied, and a payload that
    cannot be a tally key is dropped.  Each machine checks signatures
    itself, at its own point, and counts failures."""

    def __init__(self, key: InstanceKey, params: Params, self_id: int,
                 scheme: SignatureScheme):
        self.key = key
        self.params = params
        self.self_id = self_id
        self.scheme = scheme
        self.delivered = False
        self._first: dict[int, object] = {}
        self.equivocations: dict[int, list[object]] = {}
        self.invalid_sigs = 0

    def _signed(self, kind: str, payload: object) -> SignedMsg:
        return make_signed(self.scheme, self.self_id, self.key, kind, payload)

    def _first_counts(self, msg: SignedMsg, tally: dict) -> bool:
        """Add msg's signer to `tally` under its payload if this is the
        signer's first payload; True if it was added."""
        if not 0 <= msg.signer < self.params.n:          # not a validator
            return False
        prior = self._first.get(msg.signer)
        if prior is not None:
            if prior != msg.payload:
                self.equivocations.setdefault(msg.signer, []).append(msg.payload)
            return False
        try:
            signers = tally.setdefault(msg.payload, set())
        except TypeError:                # unhashable: see core.hashable
            return False
        self._first[msg.signer] = msg.payload
        signers.add(msg.signer)
        return True


class GossipRb(_SignedMachine):
    """One gossip-RB instance at one node."""

    def __init__(self, key: InstanceKey, params: Params, proposer: int,
                 self_id: int, scheme: SignatureScheme, digest_mode: bool = False):
        super().__init__(key, params, self_id, scheme)
        self.proposer = proposer
        self.digest_mode = digest_mode
        self.initial_value: object = None
        self.has_initial = False
        self.echo_signers: dict[object, set[int]] = {}

    def step(self, event: object) -> list:
        if isinstance(event, Input):
            return [self._signed(INITIAL, event.value)]
        if not isinstance(event, SignedMsg) or event.instance != self.key:
            return []
        if not self.scheme.verify(event.signer, event.signed_bytes, event.sig):
            self.invalid_sigs += 1
            return []
        if event.kind == ECHO:
            return self._try_output() if self._first_counts(event, self.echo_signers) else []
        if (event.kind != INITIAL or event.signer != self.proposer
                or not hashable(event.payload)):
            return []
        out = []
        if not self.has_initial:
            self.has_initial = True
            self.initial_value = event.payload
            if is_validator(self.self_id, self.params):
                v = event.payload
                out.append(self._signed(ECHO, digest(v) if self.digest_mode else v))
        elif event.payload != self.initial_value:
            self.equivocations.setdefault(event.signer, []).append(event.payload)
        return out + self._try_output()

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


class GossipWba(_SignedMachine):
    """One gossip-WBA instance at one node: a single signed-vote round."""

    def __init__(self, key: InstanceKey, params: Params, self_id: int,
                 scheme: SignatureScheme):
        super().__init__(key, params, self_id, scheme)
        self.vote_signers: dict[int, set[int]] = {}

    def step(self, event: object) -> list:
        if isinstance(event, Input):
            return [self._signed(VOTE, event.value)] if event.value in (0, 1) else []
        if (not isinstance(event, SignedMsg) or event.instance != self.key
                or event.kind != VOTE or event.payload not in (0, 1)):
            return []
        if not self.scheme.verify(event.signer, event.signed_bytes, event.sig):
            self.invalid_sigs += 1
            return []
        if not self._first_counts(event, self.vote_signers):
            return []
        if not self.delivered and len(self.vote_signers[event.payload]) >= self.params.quorum:
            self.delivered = True
            return [Output(event.payload)]
        return []


def machine_factory(params: Params, schedule: LeaderSchedule, self_id: int,
                    scheme: SignatureScheme,
                    digest_mode: bool = False) -> Callable[[InstanceKey], object]:
    def make(key: InstanceKey):
        if key.kind is RB:
            return GossipRb(key, params, schedule.leader_of(key.round), self_id,
                            scheme, digest_mode)
        return GossipWba(key, params, self_id, scheme)
    return make
