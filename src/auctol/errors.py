"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a structural precondition (bad ids, non-partition, ...)."""


class SchemaError(ValidationError):
    """Instance or solution file violates the JSON schema.

    Carries a JSON-pointer-style path to the offending element.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class CapacityError(RuntimeError):
    """An exact routine was asked to exceed its configured size cap."""


class NotChordalError(RuntimeError):
    """The one form of chordality failure: a chordal ordering was demanded but
    the conflict graph is not chordal. ``witness`` is a triple (v, a, b), a
    ``NotChordal`` from lex-BFS: a and b are later neighbors of v with no edge."""

    def __init__(self, witness: tuple[str, str, str]):
        self.witness = witness
        v, a, b = witness
        super().__init__(f"not chordal: node {v!r} has non-adjacent later neighbors {a!r}, {b!r}")
