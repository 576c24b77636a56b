"""Rule sets for the Plain, R-token and O-token revocation protocols.

All three protocols share the same skeleton: one-time key setup, a
misbehaviour report received by the revocation authority (RA), a signed
order-for-self-revocation (OSR) broadcast, the vehicle-side receive/confirm
step, and the RA-side confirmation accept.  The variants differ only in the
pseudonym payload, in how the confirmation is built and signed, and in what
the RA can verify about it.
"""

from __future__ import annotations

from .knowledge import Knowledge
from .records import Record, _new
from .rewriting import Fact, Rule, SystemState, make_state
from .terms import Name, Term, name, oenc, pk, renc, rdec, odec, sign, tup, var, verify, TRUE

PROTOCOLS = ("plain", "rtoken", "otoken")

RA_NAME = name("RA")
REVOKE = name("revoke")
CONFIRM = name("confirm")
REASON = name("reason")

# Fresh-variable idents whose values must never become adversary-derivable
# while reveal rules stay disabled (trusted-component abstraction).
SECRET_FRESH_VARS = frozenset({"SKRA", "LTK", "SKPSi", "SKO"})


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


def build_protocol(
    protocol: str, change_enabled: bool = False, reveals_enabled: bool = False
) -> ProtocolSpec:
    """Assemble the rule set for one protocol variant."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    ra, vj = var("RA"), var("Vj")
    skra, pkra = var("SKRA"), var("PKRA")

    ps_premise, token_of = _pseudonym_shape(protocol)

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
        _setup_pseudonym_rule(protocol),
        Rule(
            id="REPORT",
            premises=(
                Fact("VehiclePseudonym", (vj, ps_premise), persistent=True),
                Fact("RevAuthPK", (ra, pkra), persistent=True),
            ),
            events=(("Reported", (vj, token_of)),),
            conclusions=(Fact("PendingRevocation", (ra, vj, ps_premise)),),
            actor="RA",
            budget="max_sessions",
        ),
        _osr_req_send_rule(ps_premise, token_of),
        _osr_req_recv_rule(protocol),
        _osr_conf_recv_rule(protocol),
    ]
    if change_enabled:
        rules.append(_change_pseudonym_rule(protocol))
    if reveals_enabled:
        rules.extend(_reveal_rules())
    return ProtocolSpec(
        name=protocol,
        rules=tuple(sorted(rules, key=lambda r: r.id)),
        change_enabled=change_enabled,
        reveals_enabled=reveals_enabled,
    )


def _pseudonym_shape(protocol: str):
    """Pseudonym pattern as stored/reported, and its confirmation token."""
    if protocol == "plain":
        ps = var("PS")
        return ps, ps
    if protocol == "rtoken":
        sigma = var("SIGMA")
        return tup(var("PKPS"), sigma), sigma
    phi = var("PHI")
    return tup(var("PKPS"), var("PKO"), phi), phi


def _setup_vehicle_rule(reveals_enabled: bool) -> Rule:
    vj, ltk = var("Vj"), var("LTK")
    conclusions = [
        Fact("VehicleLtk", (vj, ltk), persistent=True),
        Fact("SetupPseudonym", (vj,)),
    ]
    if reveals_enabled:
        conclusions += [Fact("CanRevealLtk", (vj,)), Fact("CanRevealPsi", (vj,))]
    return Rule(
        id="SETUP_VEHICLE",
        premises=(Fact("SetupVehicle", (vj,)),),
        fresh_vars=("LTK",),
        conclusions=tuple(conclusions),
        actor="Vj",
    )


def _setup_pseudonym_rule(protocol: str) -> Rule:
    vj, ltk, skpsi = var("Vj"), var("LTK"), var("SKPSi")
    if protocol == "plain":
        ps = pk(skpsi)
        premises = (Fact("SetupPseudonym", (vj,)),)
        fresh_vars = ("SKPSi",)
    elif protocol == "rtoken":
        ps = tup(pk(skpsi), renc(tup(vj, pk(ltk), var("Rn")), ltk))
        premises = (
            Fact("SetupPseudonym", (vj,)),
            Fact("VehicleLtk", (vj, ltk), persistent=True),
        )
        fresh_vars = ("SKPSi", "Rn")
    else:
        ps = tup(pk(skpsi), pk(var("SKO")), oenc(var("SKO"), ltk))
        premises = (
            Fact("SetupPseudonym", (vj,)),
            Fact("VehicleLtk", (vj, ltk), persistent=True),
        )
        fresh_vars = ("SKPSi", "SKO")
    return Rule(
        id="SETUP_PSEUDONYM",
        premises=premises,
        fresh_vars=fresh_vars,
        events=(("InitVjPseudonym", (vj,)),),
        conclusions=(
            Fact("VehiclePSi", (vj, skpsi), persistent=True),
            Fact("VehiclePseudonym", (vj, ps), persistent=True),
            Fact("CanChange", (vj, skpsi, ps)),
        ),
        network_out=(ps,),
        actor="Vj",
    )


def _osr_req_send_rule(ps_premise, token_of) -> Rule:
    ra, vj, skra = var("RA"), var("Vj"), var("SKRA")
    body = tup(REVOKE, ps_premise, REASON)
    msg = tup(ra, vj, body, sign(body, skra))
    return Rule(
        id="REV_AUTH_OSR_REQ_SEND",
        premises=(
            Fact("PendingRevocation", (ra, vj, ps_premise)),
            Fact("RevAuthSK", (ra, skra), persistent=True),
        ),
        events=(
            ("OsrReqMsgSentTo", (ra, vj, token_of)),
            ("Running", (ra, vj, msg)),
        ),
        conclusions=(Fact("AwaitRevokeConfirmation", (ra, vj, ps_premise, skra)),),
        network_out=(msg,),
        actor="RA",
    )


def _osr_req_recv_rule(protocol: str) -> Rule:
    ra, vj, pkra = var("RA"), var("Vj"), var("PKRA")
    signer = var("SKsigner")
    if protocol == "plain":
        # Only the active pseudonym matches: the request must name the key
        # held in the vehicle's CanChange fact.
        skpsi = var("SKPSi")
        token = pk(skpsi)
        ps_in_msg = token
        premises = (
            Fact("RevAuthPK", (ra, pkra), persistent=True),
            Fact("VehiclePSi", (vj, skpsi), persistent=True),
            Fact("CanChange", (vj, skpsi, pk(skpsi))),
        )
        guards_extra = ()
        conf_body = tup(vj, CONFIRM, token)
        conf_key = skpsi
        deleted_key = skpsi
    elif protocol == "rtoken":
        # Decryption of the embedded token identifies the target, whatever
        # pseudonym is currently active.
        ltk, skact = var("LTK"), var("SKact")
        token = renc(tup(vj, pk(ltk), var("Rn")), ltk)
        ps_in_msg = tup(var("PKPS"), token)
        premises = (
            Fact("RevAuthPK", (ra, pkra), persistent=True),
            Fact("VehicleLtk", (vj, ltk), persistent=True),
            Fact("CanChange", (vj, skact, var("PSact"))),
        )
        guards_extra = ((rdec(token, ltk), tup(vj, pk(ltk), var("Rn"))),)
        conf_body = tup(CONFIRM, token)
        conf_key = ltk
        deleted_key = skact
    else:
        ltk, skact, sko = var("LTK"), var("SKact"), var("SKO")
        token = oenc(sko, ltk)
        ps_in_msg = tup(var("PKPS"), var("PKO"), token)
        premises = (
            Fact("RevAuthPK", (ra, pkra), persistent=True),
            Fact("VehicleLtk", (vj, ltk), persistent=True),
            Fact("CanChange", (vj, skact, var("PSact"))),
        )
        guards_extra = ((odec(token, ltk), sko),)
        conf_body = tup(CONFIRM, token)
        conf_key = sko
        deleted_key = skact
    body = tup(REVOKE, ps_in_msg, REASON)
    req_sig = sign(body, signer)
    req_msg = tup(ra, vj, body, req_sig)
    conf_msg = tup(vj, ra, conf_body, sign(conf_body, conf_key))
    return Rule(
        id="OSR_REQ_RECV",
        premises=premises,
        guards=((verify(req_sig, body, pkra), TRUE),) + guards_extra,
        network_in=(req_msg,),
        events=(
            ("Commit", (ra, vj, req_msg)),
            ("OsrReqMsgRecvBy", (vj, ra, token)),
            ("Recv", (vj, req_msg)),
            ("OsrReqVerified", (vj, token)),
            ("DeleteAllPseudonyms", (vj, deleted_key, pk(deleted_key))),
            ("Running", (vj, ra, conf_msg)),
            ("OsrConfSentBy", (vj, ra, token)),
        ),
        conclusions=(Fact("IsRevoked", (vj,)),),
        network_out=(conf_msg,),
        actor="Vj",
    )


def _osr_conf_recv_rule(protocol: str) -> Rule:
    ra, vj, skra = var("RA"), var("Vj"), var("SKRA")
    signer = var("SKsigner")
    if protocol == "plain":
        ps = var("PS")
        conf_body = tup(vj, CONFIRM, ps)
        # The reported pseudonym is itself the verification key.
        guards = ((verify(sign(conf_body, signer), conf_body, ps), TRUE),)
        token = ps
        await_ps = ps
    elif protocol == "rtoken":
        # The RA holds no key for the vehicle, so the confirmation signature
        # cannot be verified; only the echoed token is compared.
        sigma = var("SIGMA")
        conf_body = tup(CONFIRM, sigma)
        guards = ()
        token = sigma
        await_ps = tup(var("PKPS"), sigma)
    else:
        pko, phi = var("PKO"), var("PHI")
        conf_body = tup(CONFIRM, phi)
        guards = ((verify(sign(conf_body, signer), conf_body, pko), TRUE),)
        token = phi
        await_ps = tup(var("PKPS"), pko, phi)
    conf_msg = tup(vj, ra, conf_body, sign(conf_body, signer))
    return Rule(
        id="REV_AUTH_OSR_CONF_RECV",
        premises=(Fact("AwaitRevokeConfirmation", (ra, vj, await_ps, skra)),),
        guards=guards,
        network_in=(conf_msg,),
        events=(
            ("Commit", (vj, ra, conf_msg)),
            ("OsrConfAcceptedBy", (ra, vj, token)),
        ),
        actor="RA",
    )


def _change_pseudonym_rule(protocol: str) -> Rule:
    vj, skpsi = var("Vj"), var("SKPSi")
    if protocol == "plain":
        old_token = var("PSold")
        old_ps = old_token
        premises = (Fact("CanChange", (vj, var("SKold"), old_ps)),)
        fresh_vars = ("SKPSi",)
        new_ps = pk(skpsi)
        new_token = new_ps
    elif protocol == "rtoken":
        ltk = var("LTK")
        old_token = var("SIGold")
        old_ps = tup(var("PKold"), old_token)
        premises = (
            Fact("CanChange", (vj, var("SKold"), old_ps)),
            Fact("VehicleLtk", (vj, ltk), persistent=True),
        )
        fresh_vars = ("SKPSi", "Rn")
        new_ps = tup(pk(skpsi), renc(tup(vj, pk(ltk), var("Rn")), ltk))
        new_token = renc(tup(vj, pk(ltk), var("Rn")), ltk)
    else:
        ltk, sko = var("LTK"), var("SKO")
        old_token = var("PHIold")
        old_ps = tup(var("PKold"), var("PKOold"), old_token)
        premises = (
            Fact("CanChange", (vj, var("SKold"), old_ps)),
            Fact("VehicleLtk", (vj, ltk), persistent=True),
        )
        fresh_vars = ("SKPSi", "SKO")
        new_ps = tup(pk(skpsi), pk(sko), oenc(sko, ltk))
        new_token = oenc(sko, ltk)
    return Rule(
        id="CHANGE_PSEUDONYM",
        premises=premises,
        fresh_vars=fresh_vars,
        events=(
            ("ChangePseudonymForVehicle", (vj, old_token, new_token)),
            ("HasChanged", (vj,)),
        ),
        conclusions=(
            Fact("VehiclePSi", (vj, skpsi), persistent=True),
            Fact("VehiclePseudonym", (vj, new_ps), persistent=True),
            Fact("CanChange", (vj, skpsi, new_ps)),
        ),
        network_out=(new_ps,),
        actor="Vj",
        budget="max_changes",
        budget_per="Vj",
    )


def _reveal_rules() -> list:
    vj, ltk, skpsi = var("Vj"), var("LTK"), var("SKPSi")
    return [
        Rule(
            id="REVEAL_LTK",
            premises=(
                Fact("CanRevealLtk", (vj,)),
                Fact("VehicleLtk", (vj, ltk), persistent=True),
            ),
            events=(
                ("RevealLtk", (vj,)),
                ("VehicleCompromised", (vj, ltk)),
            ),
            network_out=(ltk,),
            actor="Vj",
        ),
        Rule(
            id="REVEAL_SK_PSI",
            premises=(
                Fact("CanRevealPsi", (vj,)),
                Fact("VehiclePSi", (vj, skpsi), persistent=True),
            ),
            events=(
                ("RevealSKPSi", (vj,)),
                ("VjSKPSiReveal", (vj, skpsi)),
                ("VehicleCompromised", (vj, skpsi)),
            ),
            network_out=(skpsi,),
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
