"""Exception types shared across the package, and the one JSON file reader.

Every error raised on bad user input derives from CosetRadonError; the CLI
exits with the error's exit_code (3 for SizeLimitError, 2 for the rest).
"""

from __future__ import annotations

import json


class CosetRadonError(Exception):
    """Base class for all input and validation failures."""

    exit_code = 2


class InvalidOrderError(CosetRadonError):
    """A size, modulus or element id parameter is out of range."""


class SizeLimitError(CosetRadonError):
    """A requested construction exceeds the configured order cap."""

    exit_code = 3


class GroupValidationError(CosetRadonError):
    """A Cayley table failed one of the group axioms."""


class MissingIdentityError(GroupValidationError):
    """No two-sided identity element exists in the table."""


class MissingInverseError(GroupValidationError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class AssociativityError(GroupValidationError):
    def __init__(self, triple: tuple[int, int, int]):
        self.triple = triple
        a, b, c = triple
        super().__init__(f"associativity fails at triple ({a}, {b}, {c})")


class InvalidActionError(CosetRadonError):
    """An action supplied to a semidirect product is not valid."""


class NotAutomorphismError(InvalidActionError):
    def __init__(self, acting: int, pair: tuple[int, int]):
        self.acting = acting
        self.pair = pair
        super().__init__(
            f"action of element {acting} is not an automorphism "
            f"(fails at pair {pair})"
        )


class NotHomomorphismError(InvalidActionError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(
            f"action map is not a homomorphism (fails at acting pair {pair})"
        )


class NotSubgroupError(CosetRadonError):
    """An element set is not closed under the group operation."""


class NotNormalError(CosetRadonError):
    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        x, h = witness
        super().__init__(f"subgroup is not normal: conjugating {h} by {x} escapes it")


class NotAbelianError(CosetRadonError):
    """An operation that needs a commutative group got a noncommutative one."""


class NotCyclicError(CosetRadonError):
    """An operation that needs a cyclic group got a noncyclic one."""


class NoGeodesicsError(CosetRadonError):
    """The group is trivial, so it carries no geodesics at all."""


class UnsupportedGroupError(CosetRadonError):
    """The group is outside the family this operation is defined for."""


class NotCoprimeError(CosetRadonError):
    def __init__(self, n1: int, n2: int):
        self.orders = (n1, n2)
        super().__init__(f"factor orders {n1} and {n2} are not coprime")


class DimensionError(CosetRadonError):
    """A vector or matrix argument has the wrong length."""


class InvalidVariantError(CosetRadonError):
    """Unknown transform variant name."""


class InvalidRepresentationError(CosetRadonError):
    """Matrix images fail the homomorphism or unitarity checks."""


class UnsupportedRepresentationError(CosetRadonError):
    """The operation is only defined for unitary representations."""


class FlowAxiomError(CosetRadonError):
    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"flow violates the {axiom} axiom at pair {witness}")


class GroupSpecError(CosetRadonError):
    """A group expression string could not be parsed."""


def read_json(path: str, error: type[CosetRadonError]):
    """The JSON value in the UTF-8 file at path. Every way the file can fail
    to be read or parsed raises error, with a one-line message."""
    return parse_json(read_file(path, error), path, error)


def read_file(path: str, error: type[CosetRadonError]) -> bytes:
    """The bytes of the file at path; a file that cannot be read raises
    error, with a one-line message."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise error(f"cannot read {path}: {exc}")


def parse_json(raw: bytes, path: str, error: type[CosetRadonError]):
    """The JSON value of raw, the UTF-8 bytes of the file at path, read as
    a text-mode open would: CRLF and CR read as LF, so the positions in a
    JSON error count characters as they did. A failure raises error, with
    a one-line message."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise error(f"{path} nests its JSON too deeply to parse")
    except ValueError as exc:  # an int of too many digits
        raise error(f"cannot read {path}: {exc}")
