"""The checkpoint-state codec: per-class field tables, one skew policy.

Every stateful class declares ``STATE``, a tuple of fields built by the
constructors below, one per snapshot key and in snapshot order, and
inherits ``state_dict`` / ``load_state_dict`` from :class:`Stateful` (or
``state_dict`` / ``from_state_dict`` from :class:`StateRecord`).
:func:`save` and :func:`load` read the table, so what happens when a
snapshot and the live object disagree is decided here and nowhere else:

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

from dataclasses import dataclass
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import CheckpointError

#: Returned by a field's ``save`` when its key is left out of the snapshot.
_OMIT = object()


@dataclass
class Field:
    """One table entry: the snapshot key(s) it owns and how they move.

    ``save(obj)`` returns the value to store (a dict of them when ``key``
    is a tuple); ``load(obj, value, fail)`` puts a stored value back,
    calling ``fail(message)`` to raise the table's error.

    A ``late`` key was added to the layout after snapshots were already
    being written: a snapshot without it leaves the live value alone.  An
    ``omit`` key may be absent because its component was: it loads as
    ``None``.  ``legacy`` names the keys an older layout of a multi-key
    entry used.  ``optional`` (a live component that both sides must have
    or lack), ``lenient`` and ``fields`` describe :func:`child` /
    :func:`group` entries to readers of the table (the skew sweep in
    ``tests/test_state_tables.py``).
    """

    kind: str
    key: str | tuple
    save: Callable
    load: Callable
    late: bool = False
    omit: bool = False
    legacy: tuple = ()
    optional: bool = False
    lenient: bool = False
    fields: tuple = ()

    def keys_of(self, state: dict) -> tuple:
        """The keys this entry owns in ``state``: its legacy layout's when
        the snapshot was written with that one."""
        if self.legacy and self.legacy[0] in state:
            return self.legacy
        return self.key if isinstance(self.key, tuple) else (self.key,)


def save(obj, fields=None) -> dict:
    """Snapshot ``obj`` through ``fields`` (default: its class's table)."""
    state = {}
    for field in type(obj).STATE if fields is None else fields:
        value = field.save(obj)
        if isinstance(field.key, tuple):
            state.update(value)
        elif value is not _OMIT:
            state[field.key] = value
    return state


def load(obj, state, fields=None, *, owner=None) -> None:
    """Restore ``state`` into ``obj`` through ``fields``, under the policy.

    ``owner`` names the class in errors and supplies the table and error
    type when ``obj`` is not an instance of it (:class:`StateRecord`).
    After its own table an object's ``_state_loaded()``, if it defines
    one, rebuilds what it derives from the restored fields.
    """
    owner = type(obj) if owner is None else owner

    def fail(message: str):
        raise owner.STATE_ERROR(f"{owner.__name__} snapshot {message}")

    _load_fields(obj, owner.STATE if fields is None else fields, state, fail)
    if fields is None and hasattr(obj, "_state_loaded"):
        obj._state_loaded()


def _load_fields(obj, fields, state, fail) -> None:
    if not isinstance(state, dict):
        fail(f"is not a mapping: {_brief(state)}")
    owned = [(field, field.keys_of(state)) for field in fields]
    expected = [key for _, keys in owned for key in keys]
    missing = [
        key for field, keys in owned if not (field.late or field.omit)
        for key in keys if key not in state
    ]
    if missing or len(state) != sum(key in state for key in expected):
        unknown = set(state) - set(expected)
        fail(
            f"is malformed: missing keys {sorted(missing)}, "
            f"unknown keys {sorted(unknown, key=str)}"
        )
    for field, keys in owned:
        if field.key in state:
            field.load(obj, state[field.key], fail)
        elif isinstance(field.key, tuple):
            field.load(obj, {key: state[key] for key in keys}, fail)
        elif not field.late:  # the key of an absent component
            field.load(obj, None, fail)


class _Tabled:
    STATE: tuple = ()
    STATE_ERROR = CheckpointError

    def state_dict(self) -> dict:
        return save(self)


class Stateful(_Tabled):
    """``state_dict`` / ``load_state_dict`` read off the class's table."""

    def load_state_dict(self, state: dict) -> None:
        load(self, state)


class StateRecord(_Tabled):
    """A value class rebuilt from its snapshot: ``from_state_dict`` hands
    the decoded fields to the constructor by attribute name."""

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


def _one_sided(key, stored: bool, live: bool) -> str:
    return (
        f"{'has' if stored else 'lacks'} {key!r} state and the live object "
        f"{'has' if live else 'lacks'} it: it was written under a different "
        "configuration"
    )


def _plain(kind, key, attr, encode, decode, check=None, late=False,
           optional=False) -> Field:
    """An attribute stored as ``encode(value)`` and put back as
    ``decode(obj, stored)`` (as is, either way, when that is ``None``).

    ``None`` is stored as ``None`` and, when ``optional``, comes back as
    ``None``.  A ``decode`` that cannot convert what it is given, and a
    ``check(obj, value)`` that returns a reason string, both end in the
    typed error.
    """
    attr = attr or key
    get = attrgetter(attr)

    def save(obj):
        value = get(obj)
        return None if value is None else encode(value)

    def load(obj, value, fail):
        if decode is not None and not (optional and value is None):
            try:
                value = decode(obj, value)
            except (TypeError, ValueError, KeyError, AttributeError) as exc:
                fail(f"cannot restore {key!r} from {_brief(value)}: {exc!r}")
        reason = check(obj, value) if check is not None else None
        if reason:
            fail(f"has an invalid {key!r} ({_brief(value)}): {reason}")
        setattr(obj, attr, value)

    return Field(kind, key, get if encode is None else save, load, late=late)


def each(item):
    """``save=`` helper: store ``[item(x) for x in container]``."""
    return lambda values: [item(x) for x in values]


def scalar(key, cast=None, *, attr=None, optional=False, late=False,
           check=None, save=None) -> Field:
    """A plain value, stored as is (or as ``save(value)``) and passed
    through ``cast`` on load; ``optional`` lets ``None`` through uncast."""
    decode = None if cast is None else lambda obj, stored: cast(stored)
    return _plain("scalar", key, attr, save, decode, check, late, optional)


def seq(key, item=None, *, attr=None, into=list, save=list, late=False,
        check=None) -> Field:
    """A list, deque or set of plain values.

    Stored as ``save(container)``; rebuilt as ``into(item(x) for x in
    stored)``, or with ``into=None`` by refilling the live container in
    place (a bounded deque keeps its ``maxlen``).
    """

    def decode(obj, stored):
        items = list(stored) if item is None else [item(x) for x in stored]
        if into is not None:
            return into(items)
        live = getattr(obj, attr or key)
        live.clear()
        live.extend(items)
        return live

    return _plain("seq", key, attr, save, decode, check, late)


def array(key, dtype, *, attr=None, optional=False, as_list=False,
          check=None) -> Field:
    """A numpy array, stored as a copy (``tolist()`` when ``as_list``)."""

    def encode(value):
        return value.tolist() if as_list else value.copy()

    def decode(obj, stored):
        # asarray first: on an unpickled array it swaps the pickle's own
        # dtype object for numpy's shared one, which later snapshots of a
        # resumed run would otherwise serialize a second time.
        return np.asarray(stored, dtype=dtype).copy()

    return _plain("array", key, attr, encode, decode, check, False, optional)


def records(key, *, attr=None, keys=None, check=None) -> Field:
    """A list of flat dicts (event logs, job lists), copied both ways.

    With ``keys`` every record must carry exactly those; ``check(obj,
    record)`` returns a reason string for a record it rejects.
    """

    def copies(rows):
        return [dict(row) for row in rows]

    def rejected(obj, rows):
        for row in rows:
            if keys is not None and set(row) != set(keys):
                return f"malformed record {_brief(row)}: keys are not {keys}"
            reason = check(obj, row) if check is not None else None
            if reason:
                return reason

    return _plain(
        "records", key, attr, copies, lambda obj, stored: copies(stored),
        rejected if keys is not None or check is not None else None,
    )


def mapping(key, cast=None, *, attr=None, name=None, save=dict,
            late=False, check=None) -> Field:
    """A flat dict, stored as ``save(mapping)``; on load its values pass
    through ``cast`` and its keys through ``name``."""

    def decode(obj, stored):
        return {
            (k if name is None else name(k)): (v if cast is None else cast(v))
            for k, v in stored.items()
        }

    return _plain("mapping", key, attr, save, decode, check, late)


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


def child(key, attr=None, *, cls=None, fresh=None, optional=False,
          omit=False, lenient=False) -> Field:
    """A component with its own table, stored as its ``state_dict()``.

    With ``cls`` the attribute is a value, rebuilt by
    ``cls.from_state_dict`` (``None`` stays ``None`` when ``optional``).
    Otherwise the live component restores itself, ``fresh(obj)`` first
    replacing it by a blank one.  An ``optional`` component may be ``None``
    — stored as ``None``, or left out of the snapshot with ``omit`` — and
    one present on one side only is an error, unless ``lenient``: then it
    is restored only when both sides have it.  Lenient is for telemetry
    riders, which observe the run without steering it.
    """
    if cls is not None:
        return _plain(
            "child", key, attr, lambda value: value.state_dict(),
            lambda obj, stored: cls.from_state_dict(stored),
            optional=optional,
        )
    get = _getter(attr or key)

    def unsupported(component) -> str:
        return (
            f"cannot hold {key!r}: {type(component).__name__} does not "
            "support checkpointing"
        )

    def save(obj):
        component = get(obj)
        if component is None:
            return _OMIT if omit else None
        if not hasattr(component, "state_dict"):
            raise CheckpointError(
                f"{type(obj).__name__} snapshot {unsupported(component)}"
            )
        return component.state_dict()

    def load(obj, value, fail):
        if fresh is not None:
            setattr(obj, attr or key, fresh(obj))
        live = get(obj)
        if lenient and (value is None or live is None):
            return
        if (value is None) != (live is None):
            fail(_one_sided(key, value is not None, live is not None))
        if live is not None:
            if not hasattr(live, "load_state_dict"):
                fail(unsupported(live))
            live.load_state_dict(value)

    return Field(
        "child", key, save, load, omit=omit or lenient,
        optional=optional or lenient, lenient=lenient,
    )


def children(key, attr=None, *, cls=None, into=list) -> Field:
    """A list of components.

    The live ones restore themselves and their number must match; with
    ``cls`` the list is a value, rebuilt as ``into(cls.from_state_dict(s)
    for s in stored)`` at whatever length was stored.
    """

    def encode(components):
        return [component.state_dict() for component in components]

    if cls is not None:
        return _plain(
            "children", key, attr, encode,
            lambda obj, stored: into(cls.from_state_dict(s) for s in stored),
        )

    def load(obj, value, fail):
        live = getattr(obj, attr or key)
        if not isinstance(value, (list, tuple)) or len(value) != len(live):
            fail(
                f"holds {_brief(value)} under {key!r}, the live object has "
                f"{len(live)} {key}"
            )
        for component, stored in zip(live, value):
            component.load_state_dict(stored)

    return Field(
        "children", key, lambda obj: encode(getattr(obj, attr or key)), load
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


def custom(key, save, load, *, legacy=()) -> Field:
    """The explicit hook for a layout no other kind describes.

    ``save(obj)`` returns the stored value and ``load(obj, value)`` puts it
    back, raising the class's typed error itself for bad *content*.  With a
    tuple ``key`` the hook owns several keys and moves a dict of them;
    ``legacy`` names the keys an older layout of the same part used, and
    ``load`` then receives whichever set the snapshot carries.
    """
    return Field(
        "custom", key, save, lambda obj, value, fail: load(obj, value),
        legacy=tuple(legacy),
    )
