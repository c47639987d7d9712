"""Batch command line: parse instance files, dispatch queries, emit JSON
answers with certificates, and drive self-tests. Only ``equiv`` and ``repr``
need :mod:`gamblesets.formulations` and :mod:`gamblesets.representation`; each
imports its module when it runs, so the other commands never load them.

Instance files are JSON with a versioned schema::

    {
      "schema": "desir/1",
      "omega": ["a", "b"],
      "gambles": {"g1": ["1", "-1"], "g2": ["-1", "2"], "zero": [0, 0]},
      "assessment": [["g1", "zero"], ["g2", "zero"]],
      "query": {"kind": "in-extension", "set": ["sum"]}
    }

Vector entries are integers or rational strings ("n", "-n", "n/d"); floats
are rejected. Depending on the subcommand the query carries ``set`` (a list
of gamble names), ``generators``, or ``gamble``.

Three commands ask about the one cone desext(E) spanned by the query's
``generators``: ``in-desext`` (is the query's ``gamble`` in it),
``zero-in-desext`` (is 0 in it, the skip test) and ``coherent-d`` (is it
coherent, that is, is 0 outside it). Their answer carries at most one
certificate, and the table ``_CONE_COMMANDS`` records which answer a
certificate stands for. In weak mode an answer without one records the
``refutation`` ``{"form", "y"}`` that puts the gamble (or 0) outside the
cone, unless there are no generators. They enumerate no pickings, so they
take no ``--cap``.

``selftest --verify FILE`` reads a payload of a command it can check,
which must declare the schema. It reads an extension payload back into an
``ExtAnswer`` for ``verify_ext_answer``. Each entry of ``"sequences"`` is
read as a cover node over the prefix it names, whatever its length, and the
verifier checks the nodes' intervals of the product either way; ``in-ext``
writes a "yes" as every picking in canonical order, full-depth leaves. A
"no" records none (``"sequences": []``) and is proved by its failed picking
alone. A weak "no" also records ``refutations`` of its failed picking, dual
vectors ``{"form", "y"}`` for the zero gamble and then each member of the
query set, and each must pass substitution. The verdict counts the certificates
and the refutations it checked. A ``consistency`` payload's ``query_set``
must be empty, the set it asks about. A "yes" names no failed picking, and
the flags ``strict``, ``answer`` and ``ext_member`` must be JSON booleans;
the verdict (``answer``, or in ``repr`` ``ext_member``) must be present.
``repr`` and ``equiv`` have no ``--strict``, so a payload of theirs with
``strict`` true is refused, and every other verdict they report must equal
the one the evidence proves: a "yes" cover proves the cone-family verdict
too, and a weak "no"'s refutations prove it false. So ``repr``'s
``family_member`` must equal ``ext_member`` and its ``answer`` be true, and
``equiv``'s three ``formulations`` must equal its ``answer`` and ``agree``
be true. A single-certificate payload's ``answer`` must match
whether it carries a certificate, and its evidence must prove that answer
by ``cones.answer_holds``, the rule ``verify_ext_answer`` applies to every
cone answer: a certificate passes substitution, with no ``refutation``
beside it. Without one, the gamble is not weakly positive (strictly, in
strict mode), and a weak payload over generators records a ``refutation``
that passes substitution, any other payload none.

Exit codes: 0 for a computed answer (even a negative one), 2 when a command
that requires consistency meets an inconsistent assessment, 1 for any input
error (unknown names, dimension mismatches, malformed JSON, exceeded caps),
each with a distinct diagnostic on stderr. Stdout carries exactly one JSON
document; runs are byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .cones import (
    Certificate,
    ConeGenerators,
    Refutation,
    answer_holds,
    desext_contains,
    desext_contains_strict,
    desext_refutation,
    posi_contains,
    zero_in_desext,
    zero_in_desext_strict,
)
from .extension import (
    Assessment,
    CapExceeded,
    DEFAULT_SEQUENCE_CAP,
    Evidence,
    ExtAnswer,
    GambleSet,
    InconsistentAssessment,
    Node,
    ext_contains,
    is_consistent,
    verify_ext_answer,
)
from .gambles import (
    DimensionMismatch,
    Gamble,
    PossibilitySpace,
    random_gamble,
    zero,
)
from .oracle import (
    InstanceGenConfig,
    brute_ext_contains,
    default_space,
    fm_desext_contains,
    fm_desext_contains_strict,
    fm_posi_contains,
    fm_zero_in_desext,
    gen_instance,
)
from .ratlp import (
    LEQ,
    EQ,
    Infeasible,
    LinearProgram,
    Value,
    fm_feasible,
    lp_solve,
    rational,
    verify_outcome,
)

SCHEMA = "desir/1"


class InputError(Exception):
    """Bad instance file, unknown name, or malformed invocation."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 is reserved
        raise InputError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class Instance(Value):
    """A parsed instance file. Like the dicts it holds, it can be assigned
    to, so it is not hashable."""

    __slots__ = _fields = ("space", "gambles", "assessment", "query")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, space: PossibilitySpace, gambles: dict[str, Gamble],
                 assessment: Assessment, query: dict) -> None:
        self.space = space
        self.gambles = gambles
        self.assessment = assessment
        self.query = query


def _read_json(path: str):
    """The JSON value of the file at ``path``; a file that cannot be read or
    decoded is an input error that names it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path} nests too deeply to decode") from None
    except ValueError:  # json.loads raises nothing else but int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(f"{path} has an integer literal of over {limit} digits") from None


def load_instance(path: str) -> Instance:
    return parse_instance(_read_json(path))


def _named(gambles: dict[str, Gamble], names, where: str) -> list[Gamble]:
    """The gambles with these names, or an input error naming the first name
    that is not a string (with ``where``, the field it came from) or not
    known."""
    for name in names:
        if not isinstance(name, str):
            raise InputError(f"{where}: gamble names must be strings, got {name!r}")
        if name not in gambles:
            raise InputError(f"unknown gamble name {name!r}")
    return [gambles[name] for name in names]


def parse_instance(payload) -> Instance:
    if not isinstance(payload, dict):
        raise InputError("instance must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise InputError(f'instance must declare "schema": "{SCHEMA}"')
    omega = payload.get("omega")
    if not isinstance(omega, list) or not omega:
        raise InputError('"omega" must be a nonempty list of atom labels')
    try:
        space = PossibilitySpace(tuple(omega))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    raw_gambles = payload.get("gambles", {})
    if not isinstance(raw_gambles, dict):
        raise InputError('"gambles" must map names to vectors')
    named, scale, limit = {}, 1, sys.get_int_max_str_digits()
    for n, v in raw_gambles.items():
        g = named[n] = _instance_gamble(space, v, f"gamble {n!r}")
        scale = math.lcm(scale, g.denominator)  # bounds every cone LP's scale
        if _too_long(scale, limit):
            raise InputError(f"the gambles' least common denominator has over {limit} digits")
    raw_assessment = payload.get("assessment", [])
    if not isinstance(raw_assessment, list):
        raise InputError('"assessment" must be a list of name lists')
    sets = []
    for row in raw_assessment:
        if not isinstance(row, list):
            raise InputError('"assessment" must be a list of name lists')
        sets.append(GambleSet.build(space, _named(named, row, "assessment")))
    assessment = Assessment.build(space, sets)
    query = payload.get("query", {})
    if not isinstance(query, dict):
        raise InputError('"query" must be an object')
    return Instance(space, named, assessment, query)


def _named_list(instance: Instance, field: str) -> list[Gamble]:
    names = instance.query.get(field)
    if not isinstance(names, list):
        raise InputError(f'query needs a {field!r} list for this command')
    return _named(instance.gambles, names, f"query.{field}")


def query_set(instance: Instance) -> GambleSet:
    return GambleSet.build(instance.space, _named_list(instance, "set"))


def query_generators(instance: Instance) -> ConeGenerators:
    return ConeGenerators.build(instance.space, _named_list(instance, "generators"))


def query_gamble(instance: Instance) -> Gamble:
    name = instance.query.get("gamble")
    if name is None:
        raise InputError("query needs a 'gamble' name for this command")
    return _named(instance.gambles, [name], "query.gamble")[0]


# ---------------------------------------------------------------------------
# Payload builders
# ---------------------------------------------------------------------------


def _evidence_entries(nodes: Iterable[Node]) -> list[dict]:
    entries = []
    for seq, ev in nodes:
        entry: dict = {"sequence": [g.serialized() for g in seq], "kind": "skip"}
        if ev.gamble is not None:
            entry.update(kind="hit", gamble=ev.gamble.serialized())
        entry["certificate"] = ev.certificate.serialized()
        entries.append(entry)
    return entries


def _ext_payload(
    command: str, space: PossibilitySpace, candidate: GambleSet, answer: ExtAnswer
) -> dict:
    payload = {
        "schema": SCHEMA,
        "command": command,
        "answer": answer.member,
        "strict": answer.strict,
        "omega": list(space.labels),
        "query_set": candidate.serialized(),
        "witness_list": [s.serialized() for s in answer.witness_list],
        "sequences": _evidence_entries(answer.per_sequence.items()),
        "failed_sequence": (
            [g.serialized() for g in answer.failed_sequence]
            if answer.failed_sequence is not None
            else None
        ),
    }
    if answer.refutations:
        payload["refutations"] = [ref.serialized() for ref in answer.refutations]
    return payload


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


def _list(value, place: str) -> list:
    """``value`` if it is a JSON list, or an input error naming its place."""
    if not isinstance(value, list):
        raise InputError(f"{place} must be a list")
    return value


def _rationals(values, place: str) -> tuple[Fraction, ...]:
    """The rationals of a payload's list at ``place``, or an input error
    naming the place of a list or an entry that is not one."""
    try:
        return tuple(map(rational, _list(values, place)))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{place}: {exc}") from exc


def _vector(space: PossibilitySpace, values, place: str) -> Gamble:
    """The gamble of a payload's vector at ``place``; input errors name the place."""
    try:
        return Gamble(space, _list(values, place))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{place}: {exc}") from exc


def _instance_gamble(space: PossibilitySpace, values, place: str) -> Gamble:
    """The gamble of an instance file, unless its integer form (the cone LPs'
    rows) has an integer of over the digit limit of ``int()``."""
    g, limit = _vector(space, values, place), sys.get_int_max_str_digits()
    if any(_too_long(v, limit) for v in (g.denominator, *g.direction)):
        raise InputError(f"{place}: over their common denominator, its entries need an "
                         f"integer of over {limit} digits")
    return g


def _too_long(v: int, limit: int) -> bool:
    """Whether v has over ``limit`` digits (0: no limit)."""
    return bool(limit) and v.bit_length() > 3 * limit and abs(v) >= 10**limit


def _vectors(space: PossibilitySpace, rows, place: str) -> tuple[Gamble, ...]:
    """The gambles of a payload's list of vectors at ``place``."""
    return tuple(_vector(space, row, f"{place}[{i}]") for i, row in enumerate(_list(rows, place)))


def _payload_space(payload) -> PossibilitySpace:
    return PossibilitySpace(tuple(_list(_field(payload, "omega"), 'payload: "omega"')))


def _certificate(space: PossibilitySpace, data, where: str) -> Certificate:
    """A certificate read from a payload; ``where`` starts its input errors."""
    if not isinstance(data, dict):
        raise InputError(f"{where} is not an object")
    for key in ("lambdas", "remainder"):
        if key not in data:
            raise InputError(f'{where} missing "{key}"')
    lambdas = _rationals(data["lambdas"], f'{where} "lambdas"')
    return Certificate(lambdas, _vector(space, data["remainder"], f'{where} "remainder"'))


def _refutation(data, where: str) -> Refutation:
    """A refutation ``{"form", "y"}`` read from a payload."""
    form = _field(data, "form", where)
    return Refutation(form, _rationals(_field(data, "y", where), f'{where}: "y"'))


def _ext_answer_from_payload(payload: dict) -> tuple[ExtAnswer, GambleSet]:
    """The inverse of :func:`_ext_payload`: the answer and the candidate set
    an ``in-ext``, ``equiv``, ``repr`` or ``consistency`` payload records.
    Each recorded sequence becomes a cover node over that prefix, of
    whatever length; the commands record every picking, full-depth leaves."""
    space = _payload_space(payload)
    candidate = GambleSet.build(
        space, _vectors(space, _field(payload, "query_set"), 'payload: "query_set"')
    )
    sets = _list(_field(payload, "witness_list"), 'payload: "witness_list"')
    witness_list = tuple(
        GambleSet.build(space, _vectors(space, s, f'payload: "witness_list"[{i}]'))
        for i, s in enumerate(sets)
    )
    cover: list[Node] = []
    for k, entry in enumerate(_list(_field(payload, "sequences"), 'payload: "sequences"')):
        where = f"sequences[{k}]"
        seq = _vectors(space, _field(entry, "sequence", where), f'{where}: "sequence"')
        kind = _field(entry, "kind", where)
        cert = _certificate(space, _field(entry, "certificate", where), f"{where}: certificate")
        if kind == "skip":
            gamble = None
        elif kind == "hit":
            if "gamble" not in entry:
                raise InputError(f'{where}: hit without "gamble"')
            gamble = _vector(space, entry["gamble"], f'{where}: "gamble"')
        else:
            raise InputError(f"{where}: unknown evidence kind {kind!r}")
        cover.append((seq, Evidence(gamble, cert)))
    refutations = [
        _refutation(data, f"refutations[{k}]")
        for k, data in enumerate(_list(payload.get("refutations", []), 'payload: "refutations"'))
    ]
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
    failed = None if failed is None else _vectors(space, failed, 'payload: "failed_sequence"')
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


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_ext(args) -> tuple[dict, int]:
    """``in-ext`` asks whether the query set is in the extension;
    ``consistency`` asks it of the empty set and answers whether it is not."""
    instance = load_instance(args.file)
    consistency = args.command == "consistency"
    candidate = GambleSet.build(instance.space, ()) if consistency else query_set(instance)
    answer = ext_contains(instance.assessment, candidate, strict=args.strict, cap=args.cap)
    payload = _ext_payload(args.command, instance.space, candidate, answer)
    if consistency:
        payload["answer"] = not answer.member
    return payload, 0


# The questions about the single cone desext(E) spanned by the query's
# ``generators``, each answered with at most one certificate, as
# (names_gamble, certified): whether the gamble f asked about is the query's
# ``gamble`` (otherwise f = 0), and the answer that a certificate stands for.
# Data only: the handler calls the deciders through this module's names, so a
# wrapper installed on them after import still sees every call.
_CONE_COMMANDS = {
    "in-desext": (True, True),
    "zero-in-desext": (False, True),
    "coherent-d": (False, False),
}


def _cmd_cone(args) -> tuple[dict, int]:
    names_gamble, certified = _CONE_COMMANDS[args.command]
    instance = load_instance(args.file)
    E = query_generators(instance)
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "strict": args.strict,
        "omega": list(instance.space.labels),
        "generators": [g.serialized() for g in E.generators],
    }
    f = zero(instance.space)
    if names_gamble:
        f = query_gamble(instance)
        payload["gamble"] = f.serialized()
        cert = (desext_contains_strict if args.strict else desext_contains)(E, f)
    else:
        cert = (zero_in_desext_strict if args.strict else zero_in_desext)(E)
    payload["answer"] = (cert is not None) == certified
    payload.update({"lambdas": None, "remainder": None} if cert is None else cert.serialized())
    ref = None if cert is not None or args.strict else desext_refutation(E, f)
    if ref is not None:
        payload["refutation"] = ref.serialized()
    return payload, 0


def _cmd_equiv(args) -> tuple[dict, int]:
    from .formulations import ext_contains_indicator, ext_contains_split

    instance = load_instance(args.file)
    candidate = query_set(instance)
    main_answer = ext_contains(instance.assessment, candidate, cap=args.cap)
    split = ext_contains_split(instance.assessment, candidate, cap=args.cap)
    indic = ext_contains_indicator(instance.assessment, candidate, cap=args.cap)
    payload = _ext_payload("equiv", instance.space, candidate, main_answer)
    payload["formulations"] = {
        "direct": main_answer.member,
        "split": split.member,
        "indicator": indic.member,
    }
    payload["agree"] = main_answer.member == split.member == indic.member
    return payload, 0


def _cmd_repr(args) -> tuple[dict, int]:
    from .representation import DFamilySpec, k_family_contains

    instance = load_instance(args.file)
    candidate = query_set(instance)
    if instance.assessment.is_empty:
        raise InputError("repr needs a nonempty assessment")
    if not is_consistent(instance.assessment, cap=args.cap):
        raise InconsistentAssessment("repr needs a consistent assessment")
    fam = DFamilySpec(instance.assessment.sets)
    family_member = k_family_contains(fam, candidate)
    answer = ext_contains(instance.assessment, candidate, cap=args.cap)
    payload = _ext_payload("repr", instance.space, candidate, answer)
    payload["ext_member"] = answer.member
    payload["family_member"] = family_member
    payload["answer"] = family_member == answer.member
    return payload, 0


def _cmd_gen(args) -> tuple[dict, int]:
    cfg = InstanceGenConfig(
        seed=args.seed,
        omega_size=args.omega_size,
        num_sets=args.num_sets,
        set_size=args.set_size,
        coeff_range=args.coeff_range,
    )
    assessment, candidate = gen_instance(cfg)
    names: dict[Gamble, str] = {}
    for g in itertools.chain(*(s.members for s in assessment.sets), candidate.members):
        if g not in names:
            names[g] = f"g{len(names)}"
    payload = {
        "schema": SCHEMA,
        "omega": list(assessment.space.labels),
        "gambles": {name: g.serialized() for g, name in names.items()},
        "assessment": [[names[g] for g in s.members] for s in assessment.sets],
        "query": {"kind": "in-extension", "set": [names[g] for g in candidate.members]},
    }
    return payload, 0


# ---------------------------------------------------------------------------
# Self-test and certificate verification
# ---------------------------------------------------------------------------


def _random_lp(rng: random.Random) -> tuple[list, list]:
    """The objective and the rows, ``==`` ones among them, of a small program."""
    n = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rel = LEQ if rng.random() < 0.8 else EQ
        rows.append((coeffs, rel, Fraction(rng.randint(-3, 3))))
    return [Fraction(rng.randint(-3, 3)) for _ in range(n)], rows


def _fm_rows_for(rows: list, n: int) -> list:
    """The rows as drawn and x >= 0, for elimination. It sees each ``==`` row
    as such, so it also checks the ``<=`` form that a program stores."""
    return rows + [
        ([Fraction(-1) if i == j else Fraction(0) for i in range(n)], LEQ, Fraction(0))
        for j in range(n)
    ]


def _selftest(seed: int, trials: int) -> tuple[dict, int]:
    rng = random.Random(seed)
    checks: dict[str, dict] = {}

    bad = 0
    for _ in range(trials):
        objective, rows = _random_lp(rng)
        lp = LinearProgram.build(objective, rows)
        outcome = lp_solve(lp)
        if not verify_outcome(lp, outcome):
            bad += 1
            continue
        feasible_lp = not isinstance(outcome, Infeasible)
        if fm_feasible(_fm_rows_for(rows, len(objective))) != feasible_lp:
            bad += 1
    checks["lp_vs_fm"] = {"instances": trials, "disagreements": bad}

    bad = 0
    for _ in range(trials):
        space = default_space(rng.randint(1, 3))
        gens = [random_gamble(rng, space, 2) for _ in range(rng.randint(0, 3))]
        f = random_gamble(rng, space, 2)
        E = ConeGenerators.build(space, gens)
        if (posi_contains(E, f) is not None) != fm_posi_contains(gens, f):
            bad += 1
        if (desext_contains(E, f) is not None) != fm_desext_contains(gens, f):
            bad += 1
        if (zero_in_desext(E) is not None) != fm_zero_in_desext(gens):
            bad += 1
        if (desext_contains_strict(E, f) is not None) != fm_desext_contains_strict(gens, f):
            bad += 1
    checks["cones_vs_fm"] = {"instances": trials, "disagreements": bad}

    bad = 0
    brute_trials = max(1, trials // 3)
    for i in range(brute_trials):
        cfg = InstanceGenConfig(
            seed=rng.randint(0, 10**9),
            omega_size=rng.randint(1, 2),
            num_sets=rng.randint(1, 2),
            set_size=rng.randint(1, 2),
            coeff_range=2,
        )
        assessment, candidate = gen_instance(cfg)
        engine = ext_contains(assessment, candidate).member
        if brute_ext_contains(assessment, candidate) != engine:
            bad += 1
    checks["brute_vs_engine"] = {"instances": brute_trials, "disagreements": bad}

    ok = all(c["disagreements"] == 0 for c in checks.values())
    payload = {
        "schema": SCHEMA,
        "command": "selftest",
        "answer": ok,
        "seed": seed,
        "trials": trials,
        "checks": checks,
    }
    return payload, 0 if ok else 1


def _cmd_verify(path: str) -> tuple[dict, int]:
    payload = _read_json(path)
    if not isinstance(payload, dict) or "command" not in payload:
        raise InputError("not a recorded answer: missing 'command'")
    command = payload["command"]
    if not isinstance(command, str):
        raise InputError('payload: "command" must be a string')
    extension = command in ("in-ext", "equiv", "repr", "consistency")
    if not extension and command not in _CONE_COMMANDS:
        raise InputError(f"cannot verify output of command {command!r}")
    if payload.get("schema") != SCHEMA:
        raise InputError(f'payload must declare "schema": "{SCHEMA}"')
    if extension:
        answer, candidate = _ext_answer_from_payload(payload)
        _check_verdicts(payload, command, answer)
        holds = verify_ext_answer(answer, candidate)
        checked, refuted = len(answer.cover), len(answer.refutations)
    else:
        names_gamble, certifies = _CONE_COMMANDS[command]
        strict = _flag(payload, "strict", False)
        certified = _field(payload, "lambdas") is not None
        answer = _field(payload, "answer")
        if answer is not (certified == certifies):
            reason = "contradicts its certificate" if certified else "needs a certificate"
            raise InputError(f'payload: "answer": {json.dumps(answer)} {reason}')
        space = _payload_space(payload)
        rows = _vectors(space, _field(payload, "generators"), 'payload: "generators"')
        E = ConeGenerators.build(space, rows)
        f = zero(space)
        if names_gamble:
            f = _vector(space, _field(payload, "gamble"), 'payload: "gamble"')
        cert = _certificate(space, payload, "payload:") if certified else None
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


def _cmd_selftest(args) -> tuple[dict, int]:
    if args.verify is not None:
        return _cmd_verify(args.verify)
    return _selftest(args.seed, args.trials)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="gamblesets", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cap(p):
        p.add_argument(
            "--cap",
            type=_positive_int,
            default=DEFAULT_SEQUENCE_CAP,
            help="maximum number of pickings to enumerate",
        )

    for name in ("consistency", "in-ext", *_CONE_COMMANDS):
        p = sub.add_parser(name)
        p.add_argument("file", help="instance JSON file")
        p.add_argument("--strict", action="store_true", help="strict-dominance mode")
        if name not in _CONE_COMMANDS:  # a cone command enumerates no pickings
            add_cap(p)
    for name in ("equiv", "repr"):
        p = sub.add_parser(name)
        p.add_argument("file")
        add_cap(p)
    p = sub.add_parser("gen")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--omega-size", type=int, default=2)
    p.add_argument("--num-sets", type=int, default=2)
    p.add_argument("--set-size", type=int, default=2)
    p.add_argument("--coeff-range", type=int, default=2)
    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=40)
    p.add_argument("--verify", metavar="FILE", help="re-validate a recorded answer")
    return parser


_HANDLERS = {
    "consistency": _cmd_ext,
    "in-ext": _cmd_ext,
    **dict.fromkeys(_CONE_COMMANDS, _cmd_cone),
    "equiv": _cmd_equiv,
    "repr": _cmd_repr,
    "gen": _cmd_gen,
    "selftest": _cmd_selftest,
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv))
    payload, code = _HANDLERS[args.command](args)
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except InconsistentAssessment as exc:
        print(f"inconsistent assessment: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 1
    except (DimensionMismatch, ValueError, TypeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
