"""The tuple substrate: Linda tuples, antituples, matching, and spaces.

Generative communication (Gelernter's Linda) exchanges *tuples* — ordered
collections of typed data — through a shared space.  Consumers describe what
they want with an *antituple* (here :class:`Pattern`): a template whose
fields are either **actuals** (concrete values that must compare equal) or
**formals** (type placeholders that match any value of that type).

This package provides:

* :class:`Tuple` / :class:`Pattern` — the value model, immutable and
  wire-serializable (:mod:`repro.tuples.serialization`).
* :func:`matches` — the matching relation, with exact-type formal semantics.
* :class:`TupleStore` — an arity/signature-indexed multiset with two-phase
  removal (``hold``/``confirm``/``release``), the primitive Tiamat's
  first-responder-wins `in` protocol is built on.
* :class:`LocalTupleSpace` — the per-node space of the Tiamat model: the six
  Linda operations with blocking waiters, lease-driven expiry, and
  non-deterministic match selection from a seeded stream.
"""

from repro.tuples.model import ANY, Actual, Field, Formal, Pattern, Range, Tuple
from repro.tuples.matching import matches
from repro.tuples.store import StoredEntry, TupleStore
from repro.tuples.space import LocalTupleSpace, Waiter
from repro.tuples.serialization import (
    decode_pattern,
    decode_tuple,
    encode_pattern,
    encode_tuple,
    encoded_size,
)

__all__ = [
    "ANY",
    "Actual",
    "Field",
    "Formal",
    "LocalTupleSpace",
    "Pattern",
    "Range",
    "StoredEntry",
    "Tuple",
    "TupleStore",
    "Waiter",
    "decode_pattern",
    "decode_tuple",
    "encode_pattern",
    "encode_tuple",
    "encoded_size",
    "matches",
]
