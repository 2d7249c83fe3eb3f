"""Parsing of datum and scenario files.

The format is line-oriented `key = value`; statements are separated by
newlines or semicolons, `#` starts a comment.  Values are integers, quoted
strings, booleans, nested lists in square brackets, or inline tables in
braces (`{ key = value, ... }`).
"""

from __future__ import annotations

from .errors import DomainError, InputError
from .ext import Scenario
from .grading import SigmaDescriptor
from .rootdata import RootDatum, build_datum, check_value_kinds

_DIGITS = "0123456789"
# int() refuses longer decimal literals (sys.int_info.default_max_str_digits)
_MAX_DIGITS = 4300
# lists and tables nest a few levels in any datum or scenario; the parser recurses per level
_MAX_DEPTH = 100


class _Scanner:
    PUNCT = "[]{}=,;"

    def __init__(self, text: str):
        self.tokens: list[tuple[str, object, int]] = []
        line = 1
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                self.tokens.append(("sep", "\n", line))
                line += 1
                i += 1
            elif c in " \t\r":
                i += 1
            elif c == "#":
                while i < n and text[i] != "\n":
                    i += 1
            elif c == ";":
                self.tokens.append(("sep", ";", line))
                i += 1
            elif c in self.PUNCT:
                self.tokens.append(("punct", c, line))
                i += 1
            elif c == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    if text[j] == "\n":
                        raise InputError(f"line {line}: unterminated string")
                    j += 1
                if j >= n:
                    raise InputError(f"line {line}: unterminated string")
                self.tokens.append(("str", text[i + 1 : j], line))
                i = j + 1
            elif c == "-" or c in _DIGITS:
                j = i + 1
                while j < n and text[j] in _DIGITS:
                    j += 1
                if text[i:j] == "-":
                    raise InputError(f"line {line}: stray '-'")
                if j - i - (c == "-") > _MAX_DIGITS:
                    raise InputError(f"line {line}: integer literal longer than {_MAX_DIGITS} digits")
                self.tokens.append(("int", int(text[i:j]), line))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word in ("true", "false"):
                    self.tokens.append(("bool", word == "true", line))
                else:
                    self.tokens.append(("name", word, line))
                i = j
            else:
                raise InputError(f"line {line}: unexpected character {c!r}")
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("eof", None, -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise InputError(f"line {tok[2]}: expected {value or kind}, got {tok[1]!r}")
        return tok


def _parse_value(sc: _Scanner, depth: int = 0):
    kind, value, line = sc.next()
    if kind in ("int", "str", "bool"):
        return value
    if kind == "punct" and value in "[{" and depth == _MAX_DEPTH:
        raise InputError(f"line {line}: lists and tables nest deeper than {_MAX_DEPTH} levels")
    if kind == "punct" and value == "[":
        items = []
        if sc.peek()[:2] == ("punct", "]"):
            sc.next()
            return items
        while True:
            items.append(_parse_value(sc, depth + 1))
            k, v, ln = sc.next()
            if (k, v) == ("punct", "]"):
                return items
            if (k, v) != ("punct", ","):
                raise InputError(f"line {ln}: expected ',' or ']' in list")
    if kind == "punct" and value == "{":
        table = {}
        if sc.peek()[:2] == ("punct", "}"):
            sc.next()
            return table
        while True:
            k, key, ln = sc.next()
            if k != "name":
                raise InputError(f"line {ln}: expected a key inside the table")
            sc.expect("punct", "=")
            if key in table:
                raise InputError(f"line {ln}: duplicate key {key!r} in table")
            table[key] = _parse_value(sc, depth + 1)
            k, v, ln = sc.next()
            if (k, v) == ("punct", "}"):
                return table
            if (k, v) != ("punct", ","):
                raise InputError(f"line {ln}: expected ',' or '}}' in table")
    raise InputError(f"line {line}: unexpected token {value!r}")


def parse_kv(text: str) -> dict:
    """Parse a key = value document into an ordered dict."""
    sc = _Scanner(text)
    out: dict = {}
    while True:
        kind, value, line = sc.peek()
        if kind == "eof":
            return out
        if kind == "sep":
            sc.next()
            continue
        if kind != "name":
            raise InputError(f"line {line}: expected a key, got {value!r}")
        sc.next()
        sc.expect("punct", "=")
        if value in out:
            raise InputError(f"line {line}: duplicate key {value!r}")
        out[value] = _parse_value(sc)
        kind, v, line = sc.peek()
        if kind == "sep":
            sc.next()
        elif kind != "eof":
            raise InputError(f"line {line}: expected end of statement, got {v!r}")


def load_datum_text(text: str) -> RootDatum:
    return build_datum(parse_kv(text))


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; a file that cannot be read as one raises InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_datum(path: str) -> RootDatum:
    return load_datum_text(_read_text(path))


_SIGMA_KINDS = {
    "name": "a string",
    "supersingular": "a boolean",
    "right_cuspidal": "a boolean",
    "left_cuspidal": "a boolean",
}
# sigma, sigma_prime, rel_twist and pairings are tables, checked where they are read
_SCENARIO_KINDS = {
    "I": "a list of strings",
    "J": "a list of strings",
    "e": "an integer",
    "p_is_2": "a boolean",
    "rel_id": "a string",
    "conjecture_assumed": "a boolean",
    "emerton_conjecture_assumed": "a boolean",
}
_SCENARIO_KEYS = set(_SCENARIO_KINDS) | {"sigma", "sigma_prime", "rel_twist", "pairings"}


def _sigma_from_table(table, default_name) -> SigmaDescriptor:
    if not isinstance(table, dict):
        raise InputError("sigma entries must be tables like { supersingular = true }")
    unknown = set(table) - set(_SIGMA_KINDS)
    if unknown:
        raise InputError(f"unknown sigma keys: {sorted(unknown)}")
    check_value_kinds(table, _SIGMA_KINDS, "sigma")
    return SigmaDescriptor(
        name=table.get("name", default_name),
        supersingular=table.get("supersingular", False),
        right_cuspidal=table.get("right_cuspidal", False),
        left_cuspidal=table.get("left_cuspidal", False),
    )


def scenario_from_dict(data: dict, datum: RootDatum) -> Scenario:
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise InputError(f"unknown scenario keys: {sorted(unknown)}")
    missing = {"I", "J"} - set(data)
    if missing:
        raise InputError(f"scenario is missing required keys: {sorted(missing)}")
    check_value_kinds(data, _SCENARIO_KINDS, "scenario")

    def label_index(label):
        try:
            return datum.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown simple-root label {label!r}") from None

    def keyed(table):
        if not isinstance(table, dict):
            raise InputError("expected a table keyed by simple-root labels")
        return {label_index(k): v for k, v in table.items()}

    return Scenario(
        datum=datum,
        I=datum.subset(data["I"]),
        J=datum.subset(data["J"]),
        sigma=_sigma_from_table(data.get("sigma", {}), "sigma"),
        sigma_prime=_sigma_from_table(data.get("sigma_prime", {}), "sigma_prime"),
        e=data.get("e", 1),
        p_is_2=data.get("p_is_2", False),
        central_pairings=keyed(data.get("pairings", {})),
        rel_twist=keyed(data.get("rel_twist", {})),
        rel_id=data.get("rel_id", "unknown"),
        conjecture_assumed=data.get("conjecture_assumed", False),
        emerton_conjecture_assumed=data.get("emerton_conjecture_assumed", False),
    )


def load_scenario_text(text: str, datum: RootDatum) -> Scenario:
    return scenario_from_dict(parse_kv(text), datum)


def load_scenario(path: str, datum: RootDatum) -> Scenario:
    return load_scenario_text(_read_text(path), datum)
