"""The reading half of the command line's checker: ``selftest --verify FILE``
reads back a payload of a command it can check, which must declare the
schema, and substitutes its evidence. Only that command imports this module.
It reads through :mod:`gamblesets.proofs`, the values and rules that solve
nothing, so a verify loads neither the cone tests nor the walk. A vector of
strings that a payload writes more than once is read once.

An extension payload is read back into an ``ExtAnswer`` for
``verify_ext_answer``. Each entry of ``"sequences"`` is read as a cover node
over the prefix it names, whatever its length, and the verifier checks the
nodes' intervals of the product either way; ``in-ext`` writes a "yes" as
every picking in canonical order, full-depth leaves. A "no" records none
(``"sequences": []``) and is proved by its failed picking alone. A weak "no"
also records ``refutations`` of its failed picking, dual vectors
``{"form", "y"}`` for the zero gamble and then each member of the query set,
and each must pass substitution. The verdict counts the certificates and the
refutations it checked. A ``consistency`` payload's ``query_set`` must be
empty, the set it asks about. A "yes" names no failed picking, and the flags
``strict``, ``answer`` and ``ext_member`` must be JSON booleans; the verdict
(``answer``, or in ``repr`` ``ext_member``) must be present. ``repr`` and
``equiv`` have no ``--strict``, so a payload of theirs with ``strict`` true
is refused, and every other verdict they report must equal the one the
evidence proves: a "yes" cover proves the cone-family verdict too, and a weak
"no"'s refutations prove it false. So ``repr``'s ``family_member`` must equal
``ext_member`` and its ``answer`` be true, and ``equiv``'s three
``formulations`` must equal its ``answer`` and ``agree`` be true. A
single-certificate payload's ``answer`` must match whether it carries a
certificate, and its evidence must prove that answer by
``proofs.answer_holds``, the rule ``verify_ext_answer`` applies to every cone
answer: a certificate passes substitution, with no ``refutation`` beside it.
Without one, the gamble is not weakly positive (strictly, in strict mode),
and a weak payload over generators records a ``refutation`` that passes
substitution, any other payload none.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .cli import CONE_COMMANDS, SCHEMA, InputError, json_list, json_vector, read_json
from .gambles import Gamble, PossibilitySpace, zero
from .proofs import (
    Certificate,
    ConeGenerators,
    Evidence,
    ExtAnswer,
    GambleSet,
    Node,
    Refutation,
    answer_holds,
    verify_ext_answer,
)
from .ratlp import rational


def _field(obj, key: str, where: str = "payload"):
    """``obj[key]`` of a payload read from a file, or an input error that
    says where in the payload the field is missing."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: not a JSON object")
    if key not in obj:
        raise InputError(f'{where}: missing "{key}"')
    return obj[key]


def _flag(payload: dict, key: str, default: Optional[bool] = None,
          where: str = "payload") -> bool:
    """The JSON boolean at ``key``, or ``default`` (if given) when the key is absent."""
    value = _field(payload, key, where) if default is None else payload.get(key, default)
    if not isinstance(value, bool):
        raise InputError(f'{where}: "{key}" must be a boolean')
    return value


def _rationals(values, place: str) -> tuple[Fraction, ...]:
    """The rationals of a payload's list at ``place``, or an input error
    naming the place of a list or an entry that is not one."""
    try:
        return tuple(map(rational, json_list(values, place)))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{place}: {exc}") from exc


def _vector(space: PossibilitySpace, row, place: str, seen: dict) -> Gamble:
    """The gamble of a payload's vector at ``place``. ``seen``, one dict per
    payload, maps each vector of strings only that was read to its gamble,
    so a vector written again (``in-ext`` writes every picking's gambles in
    each entry) is read once. Other vectors are read each time: a key of raw
    entries would take a forged ``true`` or ``1.0`` for ``1``, since
    (True,) == (1.0,) == (1,) in Python."""
    key = tuple(row) if type(row) is list and all(type(v) is str for v in row) else None
    g = seen.get(key)
    if g is None:
        g = json_vector(space, row, place)
        if key is not None:
            seen[key] = g
    return g


def _vectors(space: PossibilitySpace, rows, place: str, seen: dict) -> tuple[Gamble, ...]:
    """The gambles of a payload's list of vectors at ``place``."""
    return tuple(
        _vector(space, row, f"{place}[{i}]", seen) for i, row in enumerate(json_list(rows, place))
    )


def _payload_space(payload) -> PossibilitySpace:
    return PossibilitySpace(tuple(json_list(_field(payload, "omega"), 'payload: "omega"')))


def _certificate(space: PossibilitySpace, data, where: str, seen: dict) -> Certificate:
    """A certificate read from a payload; ``where`` starts its input errors."""
    if not isinstance(data, dict):
        raise InputError(f"{where} is not an object")
    for key in ("lambdas", "remainder"):
        if key not in data:
            raise InputError(f'{where} missing "{key}"')
    lambdas = _rationals(data["lambdas"], f'{where} "lambdas"')
    return Certificate(lambdas, _vector(space, data["remainder"], f'{where} "remainder"', seen))


def _refutation(data, where: str) -> Refutation:
    """A refutation ``{"form", "y"}`` read from a payload."""
    form = _field(data, "form", where)
    return Refutation(form, _rationals(_field(data, "y", where), f'{where}: "y"'))


def _ext_answer_from_payload(payload: dict) -> tuple[ExtAnswer, GambleSet]:
    """The inverse of :func:`gamblesets.cli._ext_payload`: the answer and the
    candidate set an ``in-ext``, ``equiv``, ``repr`` or ``consistency``
    payload records. Each recorded sequence becomes a cover node over that
    prefix, of whatever length; the commands record every picking, full-depth
    leaves."""
    space, seen = _payload_space(payload), {}
    candidate = GambleSet.build(
        space, _vectors(space, _field(payload, "query_set"), 'payload: "query_set"', seen)
    )
    sets = json_list(_field(payload, "witness_list"), 'payload: "witness_list"')
    witness_list = tuple(
        GambleSet.build(space, _vectors(space, s, f'payload: "witness_list"[{i}]', seen))
        for i, s in enumerate(sets)
    )
    cover: list[Node] = []
    for k, entry in enumerate(json_list(_field(payload, "sequences"), 'payload: "sequences"')):
        where = f"sequences[{k}]"
        seq = _vectors(space, _field(entry, "sequence", where), f'{where}: "sequence"', seen)
        kind = _field(entry, "kind", where)
        cert = _certificate(space, _field(entry, "certificate", where), f"{where}: certificate",
                            seen)
        if kind == "skip":
            gamble = None
        elif kind == "hit":
            if "gamble" not in entry:
                raise InputError(f'{where}: hit without "gamble"')
            gamble = _vector(space, entry["gamble"], f'{where}: "gamble"', seen)
        else:
            raise InputError(f"{where}: unknown evidence kind {kind!r}")
        cover.append((seq, Evidence(gamble, cert)))
    recorded = json_list(payload.get("refutations", []), 'payload: "refutations"')
    refutations = [_refutation(data, f"refutations[{k}]") for k, data in enumerate(recorded)]
    command = payload["command"]
    if command == "consistency":
        if candidate.members:
            raise InputError('payload: "query_set" of a consistency answer must be empty')
        member = not _flag(payload, "answer")  # the empty set got in
    elif command == "repr":
        member = _flag(payload, "ext_member")
    else:
        member = _flag(payload, "answer")
    failed = _field(payload, "failed_sequence")
    failed = None if failed is None else _vectors(space, failed, 'payload: "failed_sequence"', seen)
    strict = _flag(payload, "strict", False)
    answer = ExtAnswer(member, witness_list, tuple(cover), failed, strict, tuple(refutations))
    return answer, candidate


def _check_verdicts(payload: dict, command: str, answer: ExtAnswer) -> None:
    """Every verdict that ``repr`` and ``equiv`` report must be the weak
    extension verdict that the evidence proves. A "yes" cover proves the
    family verdict too, since each picking's cone is incoherent or meets the
    candidate; a weak "no" refutes zero and every candidate member at its
    failed picking, a coherent cone of the family. Neither command has
    ``--strict``."""
    if command not in ("repr", "equiv"):
        return
    if answer.strict:
        raise InputError(f'payload: "strict": true, but {command} has no --strict')
    if command == "repr":
        family = _flag(payload, "family_member")
        if family is not answer.member:
            raise InputError(
                f'payload: "family_member": {json.dumps(family)} contradicts "ext_member"'
            )
        agreement = "answer"
    else:
        where = 'payload: "formulations"'
        formulations = _field(payload, "formulations")
        for key in ("direct", "split", "indicator"):
            verdict = _flag(formulations, key, where=where)
            if verdict is not answer.member:
                raise InputError(f'{where}: "{key}": {json.dumps(verdict)} contradicts "answer"')
        agreement = "agree"
    if _flag(payload, agreement) is not True:
        raise InputError(f'payload: "{agreement}": false contradicts the evidence')


def verify_recorded(path: str) -> tuple[dict, int]:
    """The ``selftest --verify`` verdict on the payload recorded at ``path``."""
    payload = read_json(path)
    if not isinstance(payload, dict) or "command" not in payload:
        raise InputError("not a recorded answer: missing 'command'")
    command = payload["command"]
    if not isinstance(command, str):
        raise InputError('payload: "command" must be a string')
    extension = command in ("in-ext", "equiv", "repr", "consistency")
    if not extension and command not in CONE_COMMANDS:
        raise InputError(f"cannot verify output of command {command!r}")
    if payload.get("schema") != SCHEMA:
        raise InputError(f'payload must declare "schema": "{SCHEMA}"')
    if extension:
        answer, candidate = _ext_answer_from_payload(payload)
        _check_verdicts(payload, command, answer)
        holds = verify_ext_answer(answer, candidate)
        checked, refuted = len(answer.cover), len(answer.refutations)
    else:
        names_gamble, certifies = CONE_COMMANDS[command]
        strict = _flag(payload, "strict", False)
        certified = _field(payload, "lambdas") is not None
        answer = _field(payload, "answer")
        if answer is not (certified == certifies):
            reason = "contradicts its certificate" if certified else "needs a certificate"
            raise InputError(f'payload: "answer": {json.dumps(answer)} {reason}')
        space, seen = _payload_space(payload), {}
        rows = _vectors(space, _field(payload, "generators"), 'payload: "generators"', seen)
        E = ConeGenerators.build(space, rows)
        f = zero(space)
        if names_gamble:
            f = json_vector(space, _field(payload, "gamble"), 'payload: "gamble"')
        cert = _certificate(space, payload, "payload:", seen) if certified else None
        ref = _refutation(payload["refutation"], "refutation") if "refutation" in payload else None
        holds = answer_holds(E, f, strict, cert, ref)
        checked, refuted = int(certified), int(ref is not None)
    if not holds:
        raise InputError("recorded evidence fails substitution or does not match the answer")
    out = {
        "schema": SCHEMA,
        "command": "selftest",
        "answer": True,
        "verified_command": command,
        "certificates_checked": checked,
        "refutations_checked": refuted,
    }
    return out, 0
