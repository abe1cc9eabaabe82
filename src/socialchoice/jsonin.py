"""One located reader for the JSON input documents.

`load(text)` returns the document's root `Node`.  A typed read of a node
returns its value or raises `<path>: expected <what>, got <got>`.  The path
runs from the root, as in `cases[0].jury[1].ranking[2]`, and is left out at
the root itself.  `got` names the type when a list or object was expected or
given (`got int`, `got list`) and shows the JSON value otherwise (`got "6"`,
`got true`, `got NaN`).  `only(*keys)` refuses an object member outside
`keys` with `<path>: unknown key "<key>"; expected one of <keys>`.
`strings()` and `numbers()` read a whole list of scalars in one pass, and a
member that fails gets the message its own read would give.  So does
`records(make, reads, defaults)` for a list of objects with known keys, each
built by `make`: only a member that fails gets a node and a path.

`build(make, *args)` locates a `ValueError` from the checks an object makes on
itself at the node it was read from, and a `LocatedError` at the member it
names (`ratings.e2.x: rating ...`); built elsewhere, the message stays bare.
"""

from __future__ import annotations

import json
import sys
from typing import Any, NamedTuple

_REQUIRED = object()


def load(text: str) -> Node:
    """The root of the JSON document `text`, in which no object repeats a key."""
    repeats = {}  # id of each object that repeats a key -> (the object, kept alive; its key)

    def to_dict(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            repeats[id(obj)] = (obj, next(k for k, _ in pairs if k in seen or seen.add(k)))
        return obj

    try:
        root = Node(json.loads(text, object_pairs_hook=to_dict), "")
    except RecursionError:
        raise ValueError("JSON input nests too deeply") from None
    # Name the first repeating object in document order.  One that its
    # parent's own repeat dropped is not in the tree, but that parent is.
    stack = [root] if repeats else []
    while stack:
        node = stack.pop()
        if id(node.value) in repeats:
            raise node._error(f"duplicate key {json.dumps(repeats[id(node.value)][1])}")
        if isinstance(node.value, dict):
            stack += reversed([child for _, child in node.items()])
        elif isinstance(node.value, list):
            stack += reversed(node.members())
    return root


class LocatedError(ValueError):
    """A failed check on a member of an object; `keys` lead from the object to the member."""

    keys: tuple[str, ...] = ()

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys or self.keys


class Node(NamedTuple):
    """A JSON value and its path in the document."""

    value: Any
    path: str

    def _error(self, message: str, *keys: str) -> ValueError:
        path = ".".join((self.path, *keys) if self.path else keys)
        return ValueError(f"{path}: {message}" if path else message)

    def _expect(self, ok: bool, what: str, structured: bool = False):
        # The value if `ok`, else the located "expected <what>, got <got>".
        if not ok:
            named = structured or isinstance(self.value, (list, dict))
            got = type(self.value).__name__ if named else json.dumps(self.value)
            raise self._error(f"expected {what}, got {got}")
        return self.value

    def _object(self) -> dict:
        return self._expect(isinstance(self.value, dict), "an object", True)

    def build(self, make, *args):
        """`make(*args)`, with a `ValueError` it raises located at this node.

        For the checks an object makes on itself once the reads are done; a
        `LocatedError`'s keys extend the path to the member that failed.
        """
        try:
            return make(*args)
        except ValueError as exc:
            keys = exc.keys if isinstance(exc, LocatedError) else ()
            raise self._error(str(exc), *keys) from None

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, default=_REQUIRED) -> Node:
        """The member `key` of this object; when it is absent, `default` if given."""
        if key not in self._object() and default is _REQUIRED:
            raise self._error(f'missing "{key}"')
        return Node(self.value.get(key, default), self._at(key))

    def __contains__(self, key: str) -> bool:
        return key in self._object()

    def items(self) -> list[tuple[str, Node]]:
        return [(key, Node(value, self._at(key))) for key, value in self._object().items()]

    def fields(self, *keys: str) -> list[Node]:
        """The members of an object whose keys are exactly `keys`, in that order."""
        if not isinstance(self.value, dict) or set(self.value) != set(keys):
            names = " and ".join(f'"{key}"' for key in keys)
            raise self._error(f"expected an object with keys {names}")
        return [self.get(key) for key in keys]

    def only(self, *keys: str) -> Node:
        """This object, once no member has a key outside `keys`."""
        for key in self._object():
            if key not in keys:
                expected = ", ".join(json.dumps(k) for k in keys)
                raise self._error(f"unknown key {json.dumps(key)}; expected one of {expected}")
        return self

    def _list(self) -> list:
        return self._expect(isinstance(self.value, list), "a list", True)

    def members(self) -> list[Node]:
        return [Node(value, f"{self.path}[{i}]") for i, value in enumerate(self._list())]

    def strings(self) -> tuple[str, ...]:
        """The members of a list, each read by `string()`, checked in one pass."""
        plain = _PLAIN[Node.strings](self._list())
        return tuple(member.string() for member in self.members()) if plain is _MISS else plain

    def numbers(self) -> tuple[float, ...]:
        """The members of a list, each read by `number()`, checked in one pass."""
        plain = _PLAIN[Node.numbers](self._list())
        return tuple(member.number() for member in self.members()) if plain is _MISS else plain

    def records(self, make, reads: dict, defaults: dict) -> tuple:
        """`make(*values)` for each member of a list of objects, checked in one pass.

        `reads` maps each key a member may have to the read of its value, in
        the order of `make`'s arguments; a key in `defaults` may be absent.
        """
        keys = reads.keys()
        checks = [(key, _PLAIN[read]) for key, read in reads.items()]
        out = []
        for i, value in enumerate(self._list()):
            try:  # a required key that is absent raises KeyError
                if type(value) is dict and value.keys() <= keys:
                    row = [check(value[key]) if key in value else defaults[key] for key, check in checks]
                    if _MISS not in row:
                        out.append(make(*row))
                        continue
            except (KeyError, ValueError):
                pass
            member = Node(value, f"{self.path}[{i}]").only(*reads)
            out.append(member.build(make, *[
                read(member.get(key)) if key in member or key not in defaults else defaults[key]
                for key, read in reads.items()]))
        return tuple(out)

    def string(self) -> str:
        return self._expect(isinstance(self.value, str), "a string")

    def boolean(self) -> bool:
        return self._expect(isinstance(self.value, bool), "true or false")

    def integer(self) -> int:
        # JSON integers parse to exact ints; true and false parse to bools.
        return self._expect(type(self.value) is int, "an integer")

    def number(self) -> float:
        return float(self._expect(_finite(self.value), "a finite number"))


def _finite(value) -> bool:
    # The comparison fails for NaN and the infinities, and for integers past
    # the float range.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


# Each read's plain check and conversion of a raw value, for the one-pass reads.
_MISS = object()
_PLAIN = {
    Node.string: lambda v: v if type(v) is str else _MISS,
    Node.integer: lambda v: v if type(v) is int else _MISS,
    Node.number: lambda v: float(v) if _finite(v) else _MISS,
    Node.strings: lambda v: tuple(v) if type(v) is list and all(type(s) is str for s in v) else _MISS,
    Node.numbers: lambda v: tuple(map(float, v)) if type(v) is list and all(map(_finite, v)) else _MISS,
}
