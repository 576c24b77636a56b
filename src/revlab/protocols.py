"""Rule sets for the Plain, R-token and O-token revocation protocols.

All three protocols share the same skeleton: one-time key setup, a
misbehaviour report received by the revocation authority (RA), a signed
order-for-self-revocation (OSR) broadcast, the vehicle-side receive/confirm
step, and the RA-side confirmation accept.  The variants differ only in the
pseudonym payload, in how the confirmation is built and signed, and in what
the RA can verify about it.  `_variant` writes those choices once per
protocol, as a `Variant`, and `build_protocol` builds every rule of the
skeleton once from it.
"""

from __future__ import annotations

from .knowledge import Knowledge
from .records import Record, _new
from .rewriting import Fact, Rule, SystemState, make_state
from .terms import (
    TRUE, Name, Term, instantiate_partial, name, oenc, odec, pk, rdec, renc, sign, tup,
    var, verify,
)

PROTOCOLS = ("plain", "rtoken", "otoken")

RA_NAME = name("RA")
REVOKE = name("revoke")
CONFIRM = name("confirm")
REASON = name("reason")

VJ, LTK, SKPSI = var("Vj"), var("LTK"), var("SKPSi")

# Fresh-variable idents whose values must never become adversary-derivable
# while reveal rules stay disabled (trusted-component abstraction).
SECRET_FRESH_VARS = frozenset({"SKRA", "LTK", "SKPSi", "SKO", "Rn"})


class ProtocolSpec(Record):
    """Immutable protocol configuration: a named, fixed rule set.

    Construction, _replace included, rejects two rules with one id: the
    explorer keys its caches and memos on rule ids.
    """

    __slots__ = ()

    def __new__(cls, name, rules, change_enabled=False, reveals_enabled=False):
        ids = set()
        for rule in rules:
            if rule.id in ids:
                raise ValueError(f"protocol {name}: two rules have the id {rule.id!r}")
            ids.add(rule.id)
        return _new(cls, (name, rules, change_enabled, reveals_enabled))

    def rule(self, rule_id: str) -> Rule:
        for r in self.rules:
            if r.id == rule_id:
                return r
        raise KeyError(rule_id)


def vehicle_name(i: int) -> Term:
    return name(f"V{i}")


def is_vehicle(t: Term) -> bool:
    """Whether t is a vehicle name, V<digits> as vehicle_name writes it."""
    return isinstance(t, Name) and t.label[:1] == "V" and t.label[1:].isdigit()


class Variant(Record):
    """What one protocol writes into the shared skeleton, each part once.

    A vehicle mints `pseudonym`, whose confirmation token is `token`, with
    the fresh `fresh_vars` under the extra premises `minting`.  The RA
    stores, reports and awaits a pseudonym as the pattern `stored`, whose
    token is the variable `stored_token`; CHANGE_PSEUDONYM consumes the
    active pseudonym as `consumed`, with token `consumed_token`.  The
    addressed vehicle receives an OSR under `recv_premises` and
    `recv_guards`, confirms `conf_body` signed with `conf_key`, and deletes
    the pseudonyms of `deleted_key`.  The RA verifies a confirmation with
    `verify_key`, or accepts it unverified when that is None.

    `conf_body` is written as the RA reads it, over `stored_token`; the
    vehicle reads it, and the pseudonym in the OSR, with `token` in that
    variable's place.
    """

    __slots__ = ()

    def __new__(
        cls, pseudonym, token, fresh_vars, minting, stored, stored_token, consumed,
        consumed_token, recv_premises, recv_guards, conf_body, conf_key, deleted_key,
        verify_key,
    ):
        return _new(cls, (
            pseudonym, token, fresh_vars, minting, stored, stored_token, consumed,
            consumed_token, recv_premises, recv_guards, conf_body, conf_key, deleted_key,
            verify_key,
        ))


def _variant(protocol: str) -> Variant:
    """The one place where the three protocols differ."""
    if protocol == "plain":
        token = pk(SKPSI)
        ps, old = var("PS"), var("PSold")
        return Variant(
            pseudonym=token, token=token, fresh_vars=("SKPSi",), minting=(),
            stored=ps, stored_token=ps,
            consumed=old, consumed_token=old,
            # Only the active pseudonym matches: the request must name the key
            # held in the vehicle's CanChange fact.
            recv_premises=(
                Fact("VehiclePSi", (VJ, SKPSI), persistent=True),
                Fact("CanChange", (VJ, SKPSI, token)),
            ),
            recv_guards=(),
            conf_body=tup(VJ, CONFIRM, ps), conf_key=SKPSI, deleted_key=SKPSI,
            # The reported pseudonym is itself the verification key.
            verify_key=ps,
        )
    has_ltk = (Fact("VehicleLtk", (VJ, LTK), persistent=True),)
    # Decryption of the embedded token identifies the target, whatever
    # pseudonym is currently active.
    skact = var("SKact")
    any_active = has_ltk + (Fact("CanChange", (VJ, skact, var("PSact"))),)
    pkps, pkold = var("PKPS"), var("PKold")
    if protocol == "rtoken":
        plaintext = tup(VJ, pk(LTK), var("Rn"))
        token = renc(plaintext, LTK)
        sigma, old = var("SIGMA"), var("SIGold")
        return Variant(
            pseudonym=tup(pk(SKPSI), token), token=token, fresh_vars=("SKPSi", "Rn"),
            minting=has_ltk,
            stored=tup(pkps, sigma), stored_token=sigma,
            consumed=tup(pkold, old), consumed_token=old,
            recv_premises=any_active, recv_guards=((rdec(token, LTK), plaintext),),
            conf_body=tup(CONFIRM, sigma), conf_key=LTK, deleted_key=skact,
            # The RA holds no key for the vehicle, so the confirmation signature
            # cannot be verified; only the echoed token is compared.
            verify_key=None,
        )
    sko, pko = var("SKO"), var("PKO")
    token = oenc(sko, LTK)
    phi, old = var("PHI"), var("PHIold")
    return Variant(
        pseudonym=tup(pk(SKPSI), pk(sko), token), token=token, fresh_vars=("SKPSi", "SKO"),
        minting=has_ltk,
        stored=tup(pkps, pko, phi), stored_token=phi,
        consumed=tup(pkold, var("PKOold"), old), consumed_token=old,
        recv_premises=any_active, recv_guards=((odec(token, LTK), sko),),
        conf_body=tup(CONFIRM, phi), conf_key=sko, deleted_key=skact,
        verify_key=pko,
    )


def build_protocol(
    protocol: str, change_enabled: bool = False, reveals_enabled: bool = False
) -> ProtocolSpec:
    """Assemble the rule set for one protocol variant."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    v = _variant(protocol)
    ra, skra, pkra = var("RA"), var("SKRA"), var("PKRA")
    signer = var("SKsigner")

    minted = (
        Fact("VehiclePSi", (VJ, SKPSI), persistent=True),
        Fact("VehiclePseudonym", (VJ, v.pseudonym), persistent=True),
        Fact("CanChange", (VJ, SKPSI, v.pseudonym)),
    )
    body = tup(REVOKE, v.stored, REASON)
    req_msg = tup(ra, VJ, body, sign(body, skra))
    # The addressed vehicle reads the RA's patterns with its own token in the
    # place of the token variable.  A received message may carry any
    # signature (SKsigner); the guards say which ones are accepted.
    opened = {v.stored_token.ident: v.token}
    recv_body = tup(REVOKE, instantiate_partial(opened, v.stored), REASON)
    recv_sig = sign(recv_body, signer)
    recv_msg = tup(ra, VJ, recv_body, recv_sig)
    conf_body = instantiate_partial(opened, v.conf_body)
    conf_msg = tup(VJ, ra, conf_body, sign(conf_body, v.conf_key))
    accept_sig = sign(v.conf_body, signer)
    accept_msg = tup(VJ, ra, v.conf_body, accept_sig)
    if v.verify_key is None:
        accept_guards = ()
    else:
        accept_guards = ((verify(accept_sig, v.conf_body, v.verify_key), TRUE),)

    rules = [
        Rule(
            id="SETUP_REV_AUTH",
            premises=(Fact("SetupRA", (ra,)),),
            fresh_vars=("SKRA",),
            conclusions=(
                Fact("RevAuthSK", (ra, skra), persistent=True),
                Fact("RevAuthPK", (ra, pk(skra)), persistent=True),
            ),
            network_out=(pk(skra),),
            actor="RA",
        ),
        _setup_vehicle_rule(reveals_enabled),
        Rule(
            id="SETUP_PSEUDONYM",
            premises=(Fact("SetupPseudonym", (VJ,)),) + v.minting,
            fresh_vars=v.fresh_vars,
            events=(("InitVjPseudonym", (VJ,)),),
            conclusions=minted,
            network_out=(v.pseudonym,),
            actor="Vj",
        ),
        Rule(
            id="REPORT",
            premises=(
                Fact("VehiclePseudonym", (VJ, v.stored), persistent=True),
                Fact("RevAuthPK", (ra, pkra), persistent=True),
            ),
            events=(("Reported", (VJ, v.stored_token)),),
            conclusions=(Fact("PendingRevocation", (ra, VJ, v.stored)),),
            actor="RA",
            budget="max_sessions",
        ),
        Rule(
            id="REV_AUTH_OSR_REQ_SEND",
            premises=(
                Fact("PendingRevocation", (ra, VJ, v.stored)),
                Fact("RevAuthSK", (ra, skra), persistent=True),
            ),
            events=(
                ("OsrReqMsgSentTo", (ra, VJ, v.stored_token)),
                ("Running", (ra, VJ, req_msg)),
            ),
            conclusions=(Fact("AwaitRevokeConfirmation", (ra, VJ, v.stored, skra)),),
            network_out=(req_msg,),
            actor="RA",
        ),
        Rule(
            id="OSR_REQ_RECV",
            premises=(Fact("RevAuthPK", (ra, pkra), persistent=True),) + v.recv_premises,
            guards=((verify(recv_sig, recv_body, pkra), TRUE),) + v.recv_guards,
            network_in=(recv_msg,),
            events=(
                ("Commit", (ra, VJ, recv_msg)),
                ("OsrReqMsgRecvBy", (VJ, ra, v.token)),
                ("Recv", (VJ, recv_msg)),
                ("OsrReqVerified", (VJ, v.token)),
                ("DeleteAllPseudonyms", (VJ, v.deleted_key, pk(v.deleted_key))),
                ("Running", (VJ, ra, conf_msg)),
                ("OsrConfSentBy", (VJ, ra, v.token)),
            ),
            conclusions=(Fact("IsRevoked", (VJ,)),),
            network_out=(conf_msg,),
            actor="Vj",
        ),
        Rule(
            id="REV_AUTH_OSR_CONF_RECV",
            premises=(Fact("AwaitRevokeConfirmation", (ra, VJ, v.stored, skra)),),
            guards=accept_guards,
            network_in=(accept_msg,),
            events=(
                ("Commit", (VJ, ra, accept_msg)),
                ("OsrConfAcceptedBy", (ra, VJ, v.stored_token)),
            ),
            actor="RA",
        ),
    ]
    if change_enabled:
        rules.append(Rule(
            id="CHANGE_PSEUDONYM",
            premises=(Fact("CanChange", (VJ, var("SKold"), v.consumed)),) + v.minting,
            fresh_vars=v.fresh_vars,
            events=(
                ("ChangePseudonymForVehicle", (VJ, v.consumed_token, v.token)),
                ("HasChanged", (VJ,)),
            ),
            conclusions=minted,
            network_out=(v.pseudonym,),
            actor="Vj",
            budget="max_changes",
            budget_per="Vj",
        ))
    if reveals_enabled:
        rules.extend(_reveal_rules())
    return ProtocolSpec(
        name=protocol,
        rules=tuple(sorted(rules, key=lambda r: r.id)),
        change_enabled=change_enabled,
        reveals_enabled=reveals_enabled,
    )


def _setup_vehicle_rule(reveals_enabled: bool) -> Rule:
    conclusions = [
        Fact("VehicleLtk", (VJ, LTK), persistent=True),
        Fact("SetupPseudonym", (VJ,)),
    ]
    if reveals_enabled:
        conclusions += [Fact("CanRevealLtk", (VJ,)), Fact("CanRevealPsi", (VJ,))]
    return Rule(
        id="SETUP_VEHICLE",
        premises=(Fact("SetupVehicle", (VJ,)),),
        fresh_vars=("LTK",),
        conclusions=tuple(conclusions),
        actor="Vj",
    )


def _reveal_rules() -> list:
    return [
        Rule(
            id="REVEAL_LTK",
            premises=(
                Fact("CanRevealLtk", (VJ,)),
                Fact("VehicleLtk", (VJ, LTK), persistent=True),
            ),
            events=(
                ("RevealLtk", (VJ,)),
                ("VehicleCompromised", (VJ, LTK)),
            ),
            network_out=(LTK,),
            actor="Vj",
        ),
        Rule(
            id="REVEAL_SK_PSI",
            premises=(
                Fact("CanRevealPsi", (VJ,)),
                Fact("VehiclePSi", (VJ, SKPSI), persistent=True),
            ),
            events=(
                ("RevealSKPSi", (VJ,)),
                ("VjSKPSiReveal", (VJ, SKPSI)),
                ("VehicleCompromised", (VJ, SKPSI)),
            ),
            network_out=(SKPSI,),
            actor="Vj",
        ),
    ]


def initial_state(spec: ProtocolSpec, n_vehicles: int = 1) -> SystemState:
    """Post-enrolment starting point: setup tokens pending, nothing leaked.

    The adversary starts with the public agent names only.
    """
    if n_vehicles < 1:
        raise ValueError("need at least one vehicle")
    vehicles = [vehicle_name(i + 1) for i in range(n_vehicles)]
    linear = [Fact("SetupRA", (RA_NAME,))]
    linear += [Fact("SetupVehicle", (v,)) for v in vehicles]
    return make_state(
        linear=linear,
        knowledge=Knowledge(basis=frozenset([RA_NAME, *vehicles])),
    )


def agent_names(n_vehicles: int) -> list:
    return [RA_NAME] + [vehicle_name(i + 1) for i in range(n_vehicles)]
