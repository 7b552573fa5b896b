"""Exact coefficient ring.

:class:`GroundRing` / :class:`GroundElem` are Laurent polynomials with
integer coefficients in a square root of the quantum parameter and in a
declared tuple of puncture symbols.  A surface with interior punctures
gets one invertible central symbol per puncture; ``GroundRing(())`` is
the plain half-step Laurent ring.  The quantum parameter is stored as
integer counts of half-steps, so ``q^{3/2}`` is the half-step exponent
``3``.  This keeps every computation integral.  :func:`flat_mul` and
:func:`flat_accumulate` are the one place that multiplies flat
coefficients (term dicts) term pair by term pair.  :func:`keep` writes
every kept dict under the one bound ``KEPT_MAX``: the dicts a datum
keeps, the coefficient store (:func:`shared`) every kept trace uses,
and the powers of the quantum parameter that :meth:`GroundRing.q_half`
hands out.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple


class GroundRing(NamedTuple):
    """Laurent polynomials in the declared puncture symbols and the
    half-step generator ``q^{1/2}``.

    Elements are :class:`GroundElem`; their term keys are tuples
    ``(*puncture_exponents, q_half_exponent)``.
    """

    symbols: tuple[str, ...] = ()

    @property
    def nsym(self) -> int:
        return len(self.symbols)

    def zero(self) -> "GroundElem":
        return GroundElem(self, {})

    def one(self) -> "GroundElem":
        return _nonzero(self, {(0,) * len(self.symbols) + (0,): 1})

    def q_half(self, e: int) -> "GroundElem":
        """q^(e/2), one kept element per ring and ``e``: it is read-only,
        so every caller gets the same one."""
        key = self, e
        kept = _q_halves.get(key)
        return keep(_q_halves, key, _nonzero(self, {(0,) * self.nsym + (e,): 1})) if kept is None else kept

    def monomial(self, sym_exps: tuple[int, ...], q_half_exp: int = 0, coeff: int = 1) -> "GroundElem":
        if len(sym_exps) != self.nsym:
            raise ValueError("symbol exponent length mismatch")
        if coeff == 0:
            return self.zero()
        return GroundElem(self, {tuple(sym_exps) + (q_half_exp,): coeff})

    def var(self, name: str, k: int = 1) -> "GroundElem":
        i = self.symbols.index(name)
        exps = [0] * self.nsym
        exps[i] = k
        return self.monomial(tuple(exps))


def _no_rebinding(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a read-only object: no
    attribute, field or value kept in its instance dict can be rebound."""
    raise AttributeError(f"{type(self).__name__}.{name} is read-only")


# ``_make`` of a record that checks its fields in ``__new__``: it builds
# through the class, so ``_make`` and the ``_replace`` on top of it check too
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class GroundElem(dict):
    """Element of a :class:`GroundRing`: the dict of its terms, from term
    key to nonzero integer coefficient, with its ``ring``.

    Neither the terms nor the ring can be changed, so values shared
    with a cache stay as they were computed.  Equality is that of the
    term dicts, and an element is falsy exactly when it is zero.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: GroundRing, terms: dict[tuple[int, ...], int]):
        _set_ring(self, ring)
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c}
        _update(self, terms)

    __setattr__ = __delattr__ = _no_rebinding

    def _read_only(self, *args, **kwargs):
        raise TypeError("coefficient terms are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __add__(self, other: "GroundElem") -> "GroundElem":
        out = dict(self)
        for k, c in other.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return GroundElem(self.ring, out)

    def __mul__(self, other: "GroundElem") -> "GroundElem":
        return GroundElem(self.ring, flat_mul(self, other))

    def __hash__(self):
        return hash(frozenset(self.items()))

    def reflect(self) -> "GroundElem":
        """q^{1/2} -> q^{-1/2}; puncture symbols are fixed."""
        return GroundElem(self.ring, {k[:-1] + (-k[-1],): c for k, c in self.items()})

    def shift_q(self, half_steps: int) -> "GroundElem":
        """Multiply by q^{half_steps/2}; a zero shift returns ``self``."""
        if not half_steps:
            return self
        return _nonzero(self.ring, {k[:-1] + (k[-1] + half_steps,): c for k, c in self.items()})

    def __repr__(self):
        return f"GroundElem({dict(self)!r})"


# The slot setter and the dict methods, which bypass the guards; on this
# hot path the setter costs about half of what object.__setattr__ does.
_set_ring = GroundElem.ring.__set__
_new, _update = dict.__new__, dict.update


def _nonzero(ring: GroundRing, terms: dict[tuple[int, ...], int]) -> GroundElem:
    """The element with ``terms``, which must hold no zero coefficient,
    built without the zero scan of ``GroundElem.__init__``.

    For terms that cannot cancel: those of one element with every
    q-exponent shifted by one amount.
    """
    e = _new(GroundElem)
    _set_ring(e, ring)
    _update(e, terms)
    return e


def flat_mul(a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The product of two coefficients given by their term dicts, as a
    term dict (entries that cancel stay as zeros)."""
    out: dict[tuple[int, ...], int] = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(map(add, ka, kb))
            out[k] = out.get(k, 0) + ca * cb
    return out


def flat_accumulate(out: dict, left: list, right: list) -> dict:
    """Add into ``out`` the product of two factors given as lists of
    ``(exponent, coefficient terms)``, the terms ``(key, integer)``
    pairs: each coefficient term pair adds ``ca * cb`` at
    ``out[k + l][ka + kb]``, and entries that cancel stay as zeros."""
    for k, lterms in left:
        for l, rterms in right:
            key = tuple(map(add, k, l))
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            for ka, ca in lterms:
                for kb, cb in rterms:
                    kc = tuple(map(add, ka, kb))
                    acc[kc] = acc.get(kc, 0) + ca * cb
    return out


KEPT_MAX = 65536
_shared: dict[tuple[GroundRing, GroundElem], GroundElem] = {}  # by ring: equality reads only terms
_q_halves: dict[tuple[GroundRing, int], GroundElem] = {}


def keep(kept: dict, key, value):
    """Store ``value`` under ``key`` in the kept dict ``kept``, evicting
    the oldest entry at ``KEPT_MAX`` entries; returns ``value``."""
    if len(kept) >= KEPT_MAX:
        del kept[next(iter(kept))]
    kept[key] = value
    return value


def shared(c: GroundElem) -> GroundElem:
    """The stored coefficient equal to ``c`` in its ring, else ``c``, stored."""
    key = c.ring, c
    kept = _shared.get(key)
    return keep(_shared, key, c) if kept is None else kept
