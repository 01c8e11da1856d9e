"""Slot-wise ``__copy__`` for the slotted header classes.

``copy.copy`` on a ``__slots__`` class without ``__copy__`` goes through
``__reduce_ex__`` → ``copyreg._reconstruct`` and builds a state dict on
the way: ~2.5 µs per header, most of :meth:`Packet.copy`. A header's
copy is just "a new instance with the same field values", so
:func:`slot_copy` generates exactly that from the class's ``__slots__``
— one straight-line function per class, no loop, no ``__init__``
re-validation (the values already passed it once).
"""

from __future__ import annotations


def slot_copy(cls):
    """Class decorator: add a shallow, slot-by-slot ``__copy__``.

    Same result as the default ``copy.copy``: every slot of the copy is
    bound to the same value object as the original's, so rebinding a
    field on either side never shows on the other. Every slot must be
    set (the header constructors set them all).
    """
    lines = ["def __copy__(self):", "    new = _new(_cls)"]
    lines += [f"    new.{name} = self.{name}" for name in cls.__slots__]
    lines.append("    return new")
    namespace = {"_new": object.__new__, "_cls": cls}
    exec("\n".join(lines), namespace)
    cls.__copy__ = namespace["__copy__"]
    return cls
