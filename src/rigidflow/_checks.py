"""Range checks of dataclass fields, with errors that name the field."""

# the largest image side a scene or a .flo / .pfm file may have
MAX_SIDE = 100_000


class FieldError(ValueError):
    """A field out of range; the message starts with its name, for a caller to prefix."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name} must be {rule}, got {value!r}")
        self.name = name


def check_fields(obj, names, ok, rule: str) -> None:
    """Raise FieldError for the first of `names` whose value on obj fails `ok`."""
    for name in names:
        if not ok(getattr(obj, name)):
            raise FieldError(name, rule, getattr(obj, name))
