"""Command-line front end.  See FORMATS.md for grammars, schemas, and exit codes."""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .errors import CapacityError, ParseError
from .monoid import (
    MAX_SHORTEST_ALPHABET,
    count_free_monoid,
    letter,
    mask_members,
    parse_word,
    render_tree,
    render_word,
    shortest_word,
    tree_of_word,
    words_equivalent,
)
from .quotients import (
    FiniteRigTable,
    MonoidTable,
    campion_mirig,
    characteristic,
    free_idempotent_monoid_table,
    verify_rig_axioms,
)
from .subsemigroups import count_replete, count_uniform, enumerate_replete
from .triples import (
    ComplementaryTriple,
    count_characteristic_variant,
    count_free_mirig,
    eval_expression,
    mirig_upper_bounds,
)
from .verify import emit_jsonl, run_suite


def _payload(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read().strip()
    return arg


def _mask_letters(mask: int) -> str:
    return "".join(letter(g) for g in mask_members(mask)) or "{}"


def _render_triple_text(c: ComplementaryTriple) -> str:
    trees = sorted(c.s_trees(), key=lambda t: (t.alpha, t.sort_key()))
    s_words = [render_word(shortest_word(t)) or "1" for t in trees]
    d_words = [
        render_word(shortest_word(t)) or "1"
        for t in sorted(c.d, key=lambda t: (t.alpha, t.sort_key()))
    ]
    odd = [_mask_letters(a) for a in sorted(c.odd)]
    return "S = {{{}}}\nD = {{{}}}\nodd parities = {{{}}}".format(
        ", ".join(s_words), ", ".join(d_words), ", ".join(odd)
    )


def cmd_word_normalize(args) -> int:
    w = parse_word(_payload(args.word), args.n)
    t = tree_of_word(w)
    # No shortest word past the search's alphabet cap: JSON gives null and
    # text leaves the line out.
    shortest = None
    if t.height <= MAX_SHORTEST_ALPHABET:
        shortest = render_word(shortest_word(t))
    if args.format == "json":
        print(json.dumps({"tree": render_tree(t), "shortest": shortest}))
    else:
        print(f"tree: {render_tree(t)}")
        if shortest is not None:
            print(f"shortest: {shortest or '1'}")
    return 0


def cmd_word_eq(args) -> int:
    w1 = parse_word(_payload(args.word1), args.n)
    w2 = parse_word(_payload(args.word2), args.n)
    equal = words_equivalent(w1, w2)
    if args.format == "json":
        print(json.dumps({"equal": equal}))
    else:
        print("equal" if equal else "different")
    return 0


def cmd_eval(args) -> int:
    if args.format == "text" and args.n > MAX_SHORTEST_ALPHABET:
        raise CapacityError(
            "text output lists S by shortest words, supported for "
            f"n <= {MAX_SHORTEST_ALPHABET}; use --format json"
        )
    c = eval_expression(_payload(args.expression), args.n)
    if args.format == "json":
        print(json.dumps(c.to_json()))
    else:
        print(_render_triple_text(c))
    return 0


def cmd_eq(args) -> int:
    c1 = eval_expression(_payload(args.expression1), args.n)
    c2 = eval_expression(_payload(args.expression2), args.n)
    equal = c1 == c2
    if args.format == "json":
        print(json.dumps({"equal": equal}))
    else:
        print("equal" if equal else "different")
    return 0


def cmd_count(args) -> int:
    kind = args.kind
    if kind == "monoid":
        value = count_free_monoid(args.n)
    elif kind == "mirig":
        value = count_free_mirig(args.n, args.strategy)
    elif kind == "replete":
        value = count_replete(args.n)
    elif kind == "uniform":
        value = count_uniform(args.n)
    elif kind == "variant":
        value = count_characteristic_variant(args.n, args.variant)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown census {kind!r}")
    print(value)
    return 0


def cmd_enumerate(args) -> int:
    if args.what != "replete":
        raise ValueError("only 'replete' enumeration is available")
    for s in enumerate_replete(args.n):
        if args.json:
            print(json.dumps(s.to_json()))
        else:
            masks = ",".join(_mask_letters(a) for a in sorted(s.alphabet_masks()))
            print(f"alphabets=[{masks}] size={s.size()}")
    return 0


def cmd_bounds(args) -> int:
    crude, refined = mirig_upper_bounds(args.n)
    if args.format == "json":
        print(json.dumps({"crude": crude, "refined": refined}))
    else:
        print(f"crude: {crude}")
        print(f"refined: {refined}")
    return 0


def _monoid_from_spec(spec: str) -> MonoidTable:
    if spec == "trivial":
        return MonoidTable(["1"], [[0]], 0)
    if spec.startswith("free:"):
        count = re.compile(r"-?[0-9]*").match(spec, 5)
        if count.end() < len(spec) or not count.group().strip("-"):
            raise ParseError("expected a generator count after 'free:'", count.end())
        return free_idempotent_monoid_table(int(count.group()))
    with open(spec, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("monoid table: expected a JSON object with elements, mul and one")
    missing = [key for key in ("elements", "mul", "one") if key not in data]
    if missing:
        raise ValueError(f"monoid table: missing {', '.join(missing)}")
    return MonoidTable(data["elements"], data["mul"], data["one"])


def _rig_table_json(rig: FiniteRigTable) -> dict:
    report = verify_rig_axioms(rig, require_mirig=True)
    return {
        "elements": rig.elements,
        "add": rig.add,
        "mul": rig.mul,
        "zero": rig.zero,
        "one": rig.one,
        "axioms_ok": report.ok,
        "commutative": report.commutative,
        "characteristic": list(characteristic(rig)),
    }


def cmd_campion(args) -> int:
    rig = campion_mirig(_monoid_from_spec(args.monoid))
    info = _rig_table_json(rig)
    if args.format == "json":
        print(json.dumps(info))
        return 0
    width = max(len(e) for e in rig.elements)
    print(f"elements: {' '.join(rig.elements)}")
    for name, table in (("add", rig.add), ("mul", rig.mul)):
        print(f"{name}:")
        for row in table:
            print("  " + " ".join(rig.elements[v].rjust(width) for v in row))
    print(f"axioms ok: {info['axioms_ok']}")
    print(f"commutative: {info['commutative']}")
    print(f"characteristic: {tuple(info['characteristic'])}")
    return 0


def cmd_verify(args) -> int:
    rows = run_suite(args.suite)
    ok = emit_jsonl(rows, sys.stdout)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirigs",
        description="Exact computation in free idempotent monoids and free "
        "multiplicatively idempotent rigs.",
    )
    parser.add_argument("--version", action="version", version=f"mirigs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("word-normalize", help="canonical tree and shortest word")
    p.add_argument("--n", type=int, default=None)
    add_format(p)
    p.add_argument("word")
    p.set_defaults(func=cmd_word_normalize)

    p = sub.add_parser("word-eq", help="decide equality of two words")
    p.add_argument("--n", type=int, default=None)
    add_format(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_word_eq)

    p = sub.add_parser("eval", help="evaluate a rig expression to canonical form")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.add_argument("expression")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eq", help="decide equality of two rig expressions")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.add_argument("expression1")
    p.add_argument("expression2")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("count", help="exact censuses")
    p.add_argument("kind", choices=("monoid", "mirig", "replete", "uniform", "variant"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strategy", choices=("grouped", "triples"), default="grouped")
    p.add_argument(
        "--variant", choices=("11", "21", "12", "02", "boolean_semiring"), default=None
    )
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream replete subsemigroups")
    p.add_argument("what", choices=("replete",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("bounds", help="upper bounds for the free mirig size")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("campion", help="mirig from an idempotent monoid")
    p.add_argument("--monoid", required=True, help="trivial | free:N | path to JSON table")
    add_format(p)
    p.set_defaults(func=cmd_campion)

    p = sub.add_parser("verify", help="run the embedded expected-value checks")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "count" and args.kind == "variant" and args.variant is None:
        parser.error("count variant requires --variant")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
