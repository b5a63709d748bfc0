"""Frozen records with no generated code: a subclass of Record annotates its
fields in order, a default being a class attribute, and behaves as a frozen
dataclass of the same body would, a field named "_..." hidden from equality,
hash and repr.  @dataclass execs generated source for each method, and its
module loads inspect: every command paid for both on import."""


class Record:
    def __init_subclass__(cls):
        cls._init = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = tuple(name for name in cls._init if not name.startswith("_"))
        cls._defaults = {name: vars(cls)[name] for name in cls._init if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._init, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(self._init):
            raise TypeError(f"{type(self).__name__}() takes each of {', '.join(self._init)} "
                            "once, by position or keyword, or else its default")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
