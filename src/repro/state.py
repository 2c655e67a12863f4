"""The checkpoint-state codec: per-class field tables, one skew policy.

Every stateful class declares ``STATE``, a tuple of fields built by the
constructors below (:func:`scalar`, :func:`seq`, :func:`array`,
:func:`records`, :func:`mapping`, :func:`rng_state`, :func:`guard`,
:func:`child`, :func:`children`, :func:`group`, :func:`custom`), one per
snapshot key and in snapshot order, and inherits ``state_dict`` /
``load_state_dict`` from :class:`Stateful` (or ``state_dict`` /
``from_state_dict`` from :class:`StateRecord`).  :func:`save` and
:func:`load` read the table, so what happens when a snapshot and the live
object disagree is decided here and nowhere else:

* a key the table does not declare, or a declared key that is absent
  (``late`` keys, which older snapshots lack, and the keys of ``omit``
  components excepted);
* a :func:`guard` whose saved value differs from the live configuration;
* an optional component present on one side only;
* a :func:`children` list of the wrong length;
* a value its ``cast`` cannot convert or its ``check`` rejects

all raise the table's ``STATE_ERROR`` (:class:`~repro.errors
.CheckpointError` unless the class says otherwise), naming the class and
the keys.  This module imports only :mod:`repro.errors`, so every package
can import it.
"""

from __future__ import annotations

from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from .errors import CheckpointError

#: Returned by a field's ``save`` when its key is left out of the snapshot.
_OMIT = object()


class Field:
    """One table entry: the snapshot key(s) it owns and how they move.

    ``save(obj)`` returns the value to store (a dict of them for a
    multi-key :func:`custom`); ``load(obj, value, fail)`` puts a stored
    value back, calling ``fail(message)`` to raise the table's error.

    A ``late`` key was added to the layout after snapshots were already
    being written: a snapshot without it leaves the live value alone.  An
    ``omit`` key is left out, rather than stored as ``None``, while its
    component is absent.  ``optional`` (a live component that both sides
    must have or lack), ``lenient`` and ``fields`` describe :func:`child` /
    :func:`group` entries to readers of the table (the skew sweep in
    ``tests/test_state_tables.py``).
    """

    def __init__(self, kind, key, save, load, *, late=False, omit=False,
                 legacy=(), optional=False, lenient=False, fields=()):
        self.kind = kind
        self.key = key
        self.keys = key if isinstance(key, tuple) else (key,)
        self.save = save
        self.load = load
        self.late = late
        self.omit = omit
        self.legacy = tuple(legacy)
        self.optional = optional
        self.lenient = lenient
        self.fields = fields

    def keys_of(self, state: dict) -> tuple:
        """The keys this entry owns in ``state``: its legacy layout's when
        the snapshot was written with that one."""
        if self.legacy and self.legacy[0] in state:
            return self.legacy
        return self.keys


def save(obj, fields=None) -> dict:
    """Snapshot ``obj`` through ``fields`` (default: its class's table)."""
    state = {}
    for field in type(obj).STATE if fields is None else fields:
        value = field.save(obj)
        if field.key is field.keys:
            state.update(value)
        elif value is not _OMIT:
            state[field.key] = value
    return state


def load(obj, state, fields=None, *, owner=None) -> None:
    """Restore ``state`` into ``obj`` through ``fields``, under the policy.

    ``owner`` names the class in errors and supplies the table and error
    type when ``obj`` is not an instance of it (:class:`StateRecord`).
    """
    owner = type(obj) if owner is None else owner
    error = getattr(owner, "STATE_ERROR", CheckpointError)

    def fail(message: str):
        raise error(f"{owner.__name__} snapshot {message}")

    _load_fields(obj, owner.STATE if fields is None else fields, state, fail)
    loaded = getattr(obj, "_state_loaded", None)
    if loaded is not None:
        loaded()


def _load_fields(obj, fields, state, fail) -> None:
    if not isinstance(state, dict):
        fail(f"is not a mapping: {_brief(state)}")
    expected, required = set(), set()
    for field in fields:
        expected.update(field.keys_of(state))
        if not (field.late or field.omit):
            required.update(field.keys_of(state))
    missing, unknown = required - set(state), set(state) - expected
    if missing or unknown:
        fail(
            f"is malformed: missing keys {sorted(missing)}, "
            f"unknown keys {sorted(unknown, key=str)}"
        )
    for field in fields:
        if field.key is field.keys:
            field.load(
                obj, {key: state[key] for key in field.keys_of(state)}, fail
            )
        elif field.key in state or not field.late:
            field.load(obj, state.get(field.key), fail)


class Stateful:
    """``state_dict`` / ``load_state_dict`` read off the class's table.

    A class may define ``_state_loaded()`` to rebuild what it derives from
    the restored fields.
    """

    STATE: tuple = ()
    STATE_ERROR = CheckpointError

    def state_dict(self) -> dict:
        return save(self)

    def load_state_dict(self, state: dict) -> None:
        load(self, state)


class StateRecord:
    """A value class rebuilt from its snapshot: ``from_state_dict`` hands
    the decoded fields to the constructor by attribute name."""

    STATE: tuple = ()
    STATE_ERROR = CheckpointError

    def state_dict(self) -> dict:
        return save(self)

    @classmethod
    def from_state_dict(cls, state: dict):
        values = SimpleNamespace()
        load(values, state, owner=cls)
        return cls(**vars(values))


# ----------------------------------------------------------------------
# Field constructors


def _brief(value) -> str:
    """One short line of ``value`` for an error message."""
    if isinstance(value, np.ndarray):
        return f"<{value.dtype} array of shape {value.shape}>"
    text = " ".join(repr(value).split())
    return text if len(text) <= 80 else text[:77] + "..."


def _getter(source):
    return source if callable(source) else attrgetter(source)


def _put(obj, attr, key, value, convert, check, fail) -> None:
    """Convert, check and assign one plain value."""
    try:
        value = convert(value)
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        fail(f"cannot restore {key!r} from {_brief(value)}: {exc!r}")
    reason = check(obj, value) if check is not None else None
    if reason:
        fail(f"has an invalid {key!r} ({_brief(value)}): {reason}")
    setattr(obj, attr, value)


def _one_sided(key, stored: bool, live: bool) -> str:
    return (
        f"{'has' if stored else 'lacks'} {key!r} state and the live object "
        f"{'has' if live else 'lacks'} it: it was written under a different "
        "configuration"
    )


def each(item):
    """``save=`` helper: store ``[item(x) for x in container]``."""
    return lambda values: [item(x) for x in values]


def scalar(key, cast=None, *, attr=None, optional=False, late=False,
           check=None, save=None) -> Field:
    """A plain value, stored as is (or as ``save(value)``) and passed
    through ``cast`` on load.

    ``optional`` lets ``None`` through uncast; ``check(obj, value)``
    returns a reason string when the cast value is unacceptable.
    """
    attr = attr or key
    get = attrgetter(attr)

    def convert(value):
        if cast is None or (optional and value is None):
            return value
        return cast(value)

    def load(obj, value, fail):
        _put(obj, attr, key, value, convert, check, fail)

    return Field(
        "scalar", key,
        get if save is None else lambda obj: save(get(obj)), load, late=late,
    )


def seq(key, item=None, *, attr=None, into=list, save=list, late=False,
        check=None) -> Field:
    """A list, deque or set of plain values.

    Stored as ``save(container)``; rebuilt as ``into(item(x) for x in
    stored)``, or with ``into=None`` by refilling the live container in
    place (a bounded deque keeps its ``maxlen``).
    """
    attr = attr or key

    def load(obj, value, fail):
        def convert(stored):
            items = list(stored) if item is None else [item(x) for x in stored]
            if into is not None:
                return into(items)
            live = getattr(obj, attr)
            live.clear()
            live.extend(items)
            return live

        _put(obj, attr, key, value, convert, check, fail)

    return Field(
        "seq", key, lambda obj: save(getattr(obj, attr)), load, late=late
    )


def array(key, dtype, *, attr=None, optional=False, as_list=False,
          check=None) -> Field:
    """A numpy array, stored as a copy (``tolist()`` when ``as_list``)."""
    attr = attr or key

    def save(obj):
        value = getattr(obj, attr)
        if value is None:
            return None
        return value.tolist() if as_list else value.copy()

    def convert(value):
        if optional and value is None:
            return None
        # asarray first: on an unpickled array it swaps the pickle's own
        # dtype object for numpy's shared one, which later snapshots of a
        # resumed run would otherwise serialize a second time.
        return np.asarray(value, dtype=dtype).copy()

    def load(obj, value, fail):
        _put(obj, attr, key, value, convert, check, fail)

    return Field("array", key, save, load)


def records(key, *, attr=None, keys=None, check=None) -> Field:
    """A list of flat dicts (event logs, job lists), copied both ways.

    With ``keys`` every record must carry exactly those; ``check(obj,
    record)`` returns a reason string for a record it rejects.
    """
    attr = attr or key

    def load(obj, value, fail):
        def convert(stored):
            rows = [dict(row) for row in stored]
            for row in rows if keys is not None else ():
                missing, unknown = set(keys) - set(row), set(row) - set(keys)
                if missing or unknown:
                    fail(
                        f"is malformed: {key!r} record {_brief(row)} has "
                        f"missing keys {sorted(missing)}, unknown keys "
                        f"{sorted(unknown, key=str)}"
                    )
            return rows

        def first_reason(obj, rows):
            return next(filter(None, (check(obj, row) for row in rows)), None)

        _put(obj, attr, key, value, convert, check and first_reason, fail)

    return Field(
        "records", key,
        lambda obj: [dict(row) for row in getattr(obj, attr)], load,
    )


def mapping(key, cast=None, *, attr=None, name=None, save=dict,
            late=False, check=None) -> Field:
    """A flat dict, stored as ``save(mapping)``; on load its values pass
    through ``cast`` and its keys through ``name``."""
    attr = attr or key

    def convert(stored):
        return {
            (k if name is None else name(k)): (v if cast is None else cast(v))
            for k, v in stored.items()
        }

    def load(obj, value, fail):
        _put(obj, attr, key, value, convert, check, fail)

    return Field(
        "mapping", key, lambda obj: save(getattr(obj, attr)), load, late=late
    )


def rng_state(key="rng", attr="_rng") -> Field:
    """The position of a ``numpy.random.Generator`` stream."""

    def load(obj, value, fail):
        try:
            getattr(obj, attr).bit_generator.state = value
        except (TypeError, ValueError, KeyError) as exc:
            fail(f"cannot restore {key!r} from {_brief(value)}: {exc!r}")

    return Field(
        "rng", key, lambda obj: getattr(obj, attr).bit_generator.state, load
    )


def guard(key, get=None) -> Field:
    """Configuration the snapshot must agree with; never restored.

    ``get`` is an attribute name (default: ``key``) or ``get(obj)``.
    """
    get = _getter(get or key)

    def save(obj):
        value = get(obj)
        return value.copy() if isinstance(value, np.ndarray) else value

    def load(obj, value, fail):
        live = get(obj)
        if isinstance(live, np.ndarray):
            same = np.array_equal(value, live)
        else:
            same = value == live
        if not same:
            fail(
                f"has {key}={_brief(value)}, the live object has "
                f"{key}={_brief(live)}: it was written under a different "
                "configuration"
            )

    return Field("guard", key, save, load)


def _unsupported(component, key) -> str:
    return (
        f"cannot hold {key!r}: {type(component).__name__} does not support "
        "checkpointing"
    )


def child(key, attr=None, *, cls=None, fresh=None, optional=False,
          omit=False, lenient=False) -> Field:
    """A component with its own table, stored as its ``state_dict()``.

    By default the live component restores itself (``fresh(obj)`` first
    replaces it by a blank one); with ``cls`` the attribute is rebuilt by
    ``cls.from_state_dict``.  An ``optional`` component may be ``None`` —
    stored as ``None``, or left out of the snapshot with ``omit`` — and one
    present on one side only is an error, unless ``lenient``: then it is
    restored only when both sides have it.  Lenient is for telemetry
    riders, which observe the run without steering it.
    """
    attr = attr or key
    get = _getter(attr)

    def save(obj):
        component = get(obj)
        if component is None:
            return _OMIT if omit else None
        if not hasattr(component, "state_dict"):
            raise CheckpointError(
                f"{type(obj).__name__} snapshot {_unsupported(component, key)}"
            )
        return component.state_dict()

    def load(obj, value, fail):
        if cls is not None:
            rebuilt = (
                None if optional and value is None
                else cls.from_state_dict(value)
            )
            return setattr(obj, attr, rebuilt)
        if fresh is not None:
            setattr(obj, attr, fresh(obj))
        live = get(obj)
        if lenient and (value is None or live is None):
            return None
        if (value is None) != (live is None):
            fail(_one_sided(key, value is not None, live is not None))
        if live is not None:
            if not hasattr(live, "load_state_dict"):
                fail(_unsupported(live, key))
            live.load_state_dict(value)

    return Field(
        "child", key, save, load, omit=omit or lenient,
        optional=(optional and cls is None) or lenient, lenient=lenient,
    )


def children(key, attr=None, *, cls=None, into=list) -> Field:
    """A list of components.

    The live ones restore themselves and their number must match; with
    ``cls`` the list is rebuilt, ``into(cls.from_state_dict(s) for s in
    stored)``, at whatever length was stored.
    """
    attr = attr or key

    def load(obj, value, fail):
        if cls is not None:
            return _put(
                obj, attr, key, value,
                lambda stored: into(cls.from_state_dict(s) for s in stored),
                None, fail,
            )
        live = getattr(obj, attr)
        if not isinstance(value, (list, tuple)) or len(value) != len(live):
            fail(
                f"holds {_brief(value)} under {key!r}, the live object has "
                f"{len(live)} {key}"
            )
        for component, stored in zip(live, value):
            component.load_state_dict(stored)

    return Field(
        "children", key,
        lambda obj: [c.state_dict() for c in getattr(obj, attr)], load,
    )


def group(key, fields, *, when=None) -> Field:
    """A nested dict of fields that live on the same object.

    ``when(obj)`` (or the attribute it names) being ``None`` means the
    group's subsystem is off: stored as ``None``, one-sided is an error.
    """
    fields = tuple(fields)
    present = None if when is None else _getter(when)

    def save_group(obj):
        if present is not None and present(obj) is None:
            return None
        return save(obj, fields)

    def load_group(obj, value, fail):
        live = present is None or present(obj) is not None
        if (value is None) == live:
            fail(_one_sided(key, value is not None, live))
        if live:
            _load_fields(
                obj, fields, value,
                lambda message: fail(f"[{key!r}] {message}"),
            )

    return Field(
        "group", key, save_group, load_group,
        fields=fields, optional=present is not None,
    )


def custom(key, save, load, *, legacy=(), late=False) -> Field:
    """The explicit hook for a layout no other kind describes.

    ``save(obj)`` returns the stored value and ``load(obj, value)`` puts it
    back, raising the class's typed error itself for bad *content*.  With a
    tuple ``key`` the hook owns several keys and moves a dict of them;
    ``legacy`` names the keys an older layout of the same part used, and
    ``load`` then receives whichever set the snapshot carries.
    """
    return Field(
        "custom", key, save,
        lambda obj, value, fail: load(obj, value),
        legacy=legacy, late=late,
    )
