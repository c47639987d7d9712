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
certificate, and the table ``CONE_COMMANDS`` records which answer a
certificate stands for. In weak mode an answer without one records the
``refutation`` ``{"form", "y"}`` that puts the gamble (or 0) outside the
cone, unless there are no generators. They enumerate no pickings, so they
take no ``--cap``.

``selftest --verify FILE`` checks a payload of a command it can check by
substitution; it is :mod:`gamblesets.check`, which no other command loads.

Each command takes its options before or after its ``FILE``, as
``--opt value`` or ``--opt=value``; the last of a repeated option wins, and
``-h`` or ``--help`` writes the usage to stdout. The table ``_COMMANDS``
holds every command's handler, whether it reads a ``FILE``, and its options.

Exit codes: 0 for a computed answer (even a negative one), 2 when a command
that requires consistency meets an inconsistent assessment, 1 for any input
error (unknown names, dimension mismatches, malformed JSON, exceeded caps),
each with a distinct diagnostic on stderr. Stdout carries exactly one JSON
document; runs are byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Optional, Sequence

from .cones import (
    ConeGenerators,
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
    ExtAnswer,
    GambleSet,
    InconsistentAssessment,
    Node,
    ext_contains,
    is_consistent,
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
    quoted,
    verify_outcome,
)

SCHEMA = "desir/1"


class InputError(Exception):
    """Bad instance file, unknown name, or malformed invocation."""


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


def read_json(path: str):
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
    return parse_instance(read_json(path))


def json_list(value, place: str) -> list:
    """``value`` if it is a JSON list, or an input error naming its place."""
    if not isinstance(value, list):
        raise InputError(f"{place} must be a list")
    return value


def json_vector(space: PossibilitySpace, values, place: str) -> Gamble:
    """The gamble of a JSON vector at ``place``; input errors name the place."""
    try:
        return Gamble(space, json_list(values, place))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{place}: {exc}") from exc


def _instance_gamble(space: PossibilitySpace, values, place: str) -> Gamble:
    """The gamble of an instance file, unless its integer form (the cone LPs'
    rows) has an integer of over the digit limit of ``int()``."""
    g, limit = json_vector(space, values, place), sys.get_int_max_str_digits()
    if any(_too_long(v, limit) for v in (g.denominator, *g.direction)):
        raise InputError(f"{place}: over their common denominator, its entries need an "
                         f"integer of over {limit} digits")
    return g


def _too_long(v: int, limit: int) -> bool:
    """Whether v has over ``limit`` digits (0: no limit)."""
    return bool(limit) and v.bit_length() > 3 * limit and abs(v) >= 10**limit


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
CONE_COMMANDS = {
    "in-desext": (True, True),
    "zero-in-desext": (False, True),
    "coherent-d": (False, False),
}


def _cmd_cone(args) -> tuple[dict, int]:
    names_gamble, certified = CONE_COMMANDS[args.command]
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


def _cmd_selftest(args) -> tuple[dict, int]:
    if args.verify is not None:
        from .check import verify_recorded

        return verify_recorded(args.verify)
    return _selftest(args.seed, args.trials)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# Every command as (handler, whether it reads a FILE, options). Each option
# maps "--name" to (kind, default), where the kind is "flag", "int",
# "positive" (an int of at least 1) or "path"; the handler reads its value as
# the attribute "name" (dashes made underscores).
_STRICT = {"--strict": ("flag", False)}
_CAP = {"--cap": ("positive", DEFAULT_SEQUENCE_CAP)}
_COMMANDS = {
    "consistency": (_cmd_ext, True, {**_STRICT, **_CAP}),
    "in-ext": (_cmd_ext, True, {**_STRICT, **_CAP}),
    **dict.fromkeys(CONE_COMMANDS, (_cmd_cone, True, _STRICT)),  # no pickings, no cap
    "equiv": (_cmd_equiv, True, _CAP),
    "repr": (_cmd_repr, True, _CAP),
    "gen": (_cmd_gen, False, {
        "--seed": ("int", 0), "--omega-size": ("int", 2), "--num-sets": ("int", 2),
        "--set-size": ("int", 2), "--coeff-range": ("int", 2),
    }),
    "selftest": (_cmd_selftest, False, {
        "--seed": ("int", 0), "--trials": ("positive", 40), "--verify": ("path", None),
    }),
}

# An argument that starts with "-" is still a value when it is "-", a
# negative number or has a space in it, as argparse reads it.
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_option(arg: str) -> bool:
    return arg[:1] == "-" and arg != "-" and not _NUMBER.match(arg) and " " not in arg


def _usage(names) -> str:
    lines = []
    for name in names:
        _, reads_file, options = _COMMANDS[name]
        words = [
            f"[{o}]" if kind == "flag" else f"[{o} {'FILE' if kind == 'path' else 'N'}]"
            for o, (kind, _) in options.items()
        ]
        lines.append(" ".join(["gamblesets", name, *words, *(["FILE"] if reads_file else [])]))
    return "usage: " + "\n       ".join(lines) + "\n"


def _parse(argv: Sequence[str]):
    """The arguments of the command that argv names, or the usage text (of
    every command, before the command) for -h or --help. The diagnostics are
    argparse's: a value is converted as it is read, then a missing command or
    FILE is named, then every argument left over. A rejected value is quoted
    as an instance's entries are, by at most 40 characters and its length; a
    number below 1 and the leftover arguments are cut so when over 40
    characters, and written as they are otherwise."""
    args, extras = iter(argv), []
    for command in args:
        if command in ("-h", "--help"):
            return _usage(_COMMANDS)
        if not _is_option(command):
            break
        extras.append(command)
    else:
        raise InputError("the following arguments are required: command")
    if command not in _COMMANDS:
        choices = f"(choose from {', '.join(map(repr, _COMMANDS))})"
        raise InputError(f"argument command: invalid choice: {quoted(command)} {choices}")
    _, reads_file, options = _COMMANDS[command]
    values = {name: default for name, (_, default) in options.items()}
    file, only_values = None, False  # only values after "--"
    for arg in args:
        if only_values or not _is_option(arg):
            if reads_file and file is None:
                file = arg
            else:
                extras.append(arg)
            continue
        if arg == "--":
            only_values = True
            continue
        if arg in ("-h", "--help"):
            return _usage([command])
        name, explicit, value = arg.partition("=")
        if name not in options:
            extras.append(arg)
            continue
        kind = options[name][0]
        if kind == "flag":
            if explicit:
                raise InputError(f"argument {name}: ignored explicit argument {quoted(value)}")
            value = True
        elif not explicit:
            value = next(args, None)
            if value is None or _is_option(value):
                raise InputError(f"argument {name}: expected one argument")
        if kind in ("int", "positive"):
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"argument {name}: invalid int value: {quoted(value)}") from None
            if kind == "positive" and value < 1:
                got = str(value)
                got = got if len(got) <= 40 else quoted(got)
                raise InputError(f"argument {name}: must be at least 1, got {got}")
        values[name] = value
    if reads_file and file is None:
        raise InputError("the following arguments are required: file")
    if extras:
        extra = " ".join(extras)
        raise InputError(f"unrecognized arguments: {extra if len(extra) <= 40 else quoted(extra)}")
    values = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, file=file, **values)


def run(argv: Sequence[str]) -> int:
    args = _parse(argv)
    if isinstance(args, str):
        sys.stdout.write(args)
        return 0
    payload, code = _COMMANDS[args.command][0](args)
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
    # ``python -m gamblesets.cli`` runs this file as __main__: go through the
    # package's own copy of it, whose InputError is the one check raises.
    from gamblesets.cli import main as package_main

    sys.exit(package_main())
