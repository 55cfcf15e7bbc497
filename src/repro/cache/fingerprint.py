"""Stable content fingerprints for simulation/compilation inputs.

A cache key must identify *everything* a result depends on:

* the kernel's instruction stream and metadata (not its name — two
  identically coded kernels are the same simulation);
* the launch geometry and the full :class:`~repro.arch.GPUConfig`;
* the simulation kwargs (``mode``, ``threshold``, wave caps, sampling);
* the **engine fingerprint**: the ``REPRO_DECODE_CACHE`` /
  ``REPRO_CYCLE_SKIP`` / ``REPRO_VECTOR_LANES`` /
  ``REPRO_WARP_BATCH`` / ``REPRO_TRACE_JIT`` environment switches plus
  :data:`CACHE_SCHEMA_VERSION`. The engine flags are semantically
  bit-identical, but the ``ticks_executed`` / ``skipped_cycles``
  diagnostics differ between them, and a cached result must round-trip
  *every* field of a fresh run under the same flags.

Fingerprints are SHA-256 digests of a compact canonical form
(encoding v2):

* ``None``, ``bool``, ``int``, ``float``, ``str`` and ``bytes`` values
  are their own form;
* lists and tuples become a list of their items' forms, so both key
  alike;
* every other kind becomes a tuple whose first item is a tag naming
  the kind: ``("Name:digest", *field values)`` for a dataclass, where
  the digest covers the field names, so adding or reordering fields
  invalidates old keys; ``("enum Name", value)`` for an enum member;
  ``("kernel", num_regs, num_preds, shared_bytes, *instructions)``
  for a kernel; ``("map", k1, v1, ...)`` and ``("set", ...)`` with
  entries in serialized order, so insertion order does not matter.

The form is serialized with :mod:`marshal` format 2, which tells every
primitive type apart (``True``/``1``/``1.0``, ``0.0``/``-0.0``,
``str``/``bytes``) and writes no back-references, so equal forms give
equal bytes whatever objects they share.

Each class's encoder is resolved once, on first sight, from the class
alone; encoding then dispatches on ``type(value)``. Canonicalization
is strict: an object kind it does not recognize raises
:class:`TypeError` at any nesting depth, instead of hashing something
unstable (``repr`` of an arbitrary object includes its memory
address).
"""

from __future__ import annotations

import hashlib
import marshal
import os
from dataclasses import fields, is_dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable

from repro.isa.kernel import Kernel

#: Bump whenever the layout or semantics of cached payloads, or the
#: key encoding, change; part of every key, so old cache directories
#: simply stop matching.
CACHE_SCHEMA_VERSION = 2

#: The last marshal format without back-references (version 3 added
#: them, which makes the bytes depend on object sharing).
_MARSHAL_VERSION = 2

#: Kinds that are their own canonical form.
_ATOMS = frozenset({type(None), bool, int, float, str, bytes})

_FALSY = ("0", "off", "false", "no")


def _flag(name: str, default: str = "1") -> bool:
    return os.environ.get(name, default).strip().lower() not in _FALSY


def _serialize(form: object) -> bytes:
    return marshal.dumps(form, _MARSHAL_VERSION)


class _Encoders(dict):
    """Per-class encoders, each resolved on first sight of its class."""

    def __missing__(self, cls: type) -> Callable[[object], object]:
        encode = self[cls] = _resolve(cls)
        return encode


_ENCODERS = _Encoders()


def canonicalize(value: object) -> object:
    """The compact canonical form of ``value`` (see the module doc)."""
    cls = type(value)
    if cls in _ATOMS:
        return value
    return _ENCODERS[cls](value)


def _forms(values) -> list:
    """The items' forms, as a list: the canonical form of a sequence."""
    return [
        v if type(v) in _ATOMS else _ENCODERS[type(v)](v) for v in values
    ]


def _set(value) -> tuple:
    return ("set", *sorted(_forms(value), key=_serialize))


def _mapping(value: dict) -> tuple:
    pairs = sorted(
        ((canonicalize(k), canonicalize(v)) for k, v in value.items()),
        key=lambda pair: _serialize(pair[0]),
    )
    return ("map", *(form for pair in pairs for form in pair))


def _kernel(kernel: Kernel) -> tuple:
    # Content-addressed: the name and label table are identity and
    # redundancy respectively; the instruction stream (with its
    # resolved pcs, release flags and payloads) is the content.
    return ("kernel", *_forms((
        kernel.num_regs, kernel.num_preds, kernel.shared_bytes,
        *kernel.instructions,
    )))


def _enum_encoder(cls: type) -> Callable[[Enum], tuple]:
    tag = f"enum {cls.__name__}"
    built: dict[Enum, tuple] = {}

    def encode(member: Enum) -> tuple:
        form = built.get(member)
        if form is None:
            form = built[member] = (tag, canonicalize(member._value_))
        return form

    return encode


def _dataclass_encoder(cls: type) -> Callable[[object], tuple]:
    names = [f.name for f in fields(cls)]
    digest = hashlib.sha256(" ".join(names).encode("utf-8")).hexdigest()
    tag = f"{cls.__name__}:{digest[:12]}"
    if len(names) > 1:
        values = attrgetter(*names)
    else:  # attrgetter returns a bare value for one name
        def values(value: object) -> tuple:
            return tuple(getattr(value, name) for name in names)

    def encode(value: object) -> tuple:
        return (tag, *_forms(values(value)))

    return encode


def _resolve(cls: type) -> Callable[[object], object]:
    if issubclass(cls, Enum):
        return _enum_encoder(cls)
    for atom in (int, float, str, bytes):
        if issubclass(cls, atom):
            # e.g. numpy.float64: keyed as the plain value it equals.
            return atom
    if issubclass(cls, Kernel):
        return _kernel
    if issubclass(cls, (list, tuple)):
        return _forms
    if issubclass(cls, (set, frozenset)):
        return _set
    if issubclass(cls, dict):
        return _mapping
    if is_dataclass(cls):
        # Covers Instruction, PredGuard, GPUConfig, LaunchConfig,
        # Workload, Table1Row, ...
        return _dataclass_encoder(cls)
    raise TypeError(
        f"cannot fingerprint {cls.__name__!r} values; "
        "cache keys accept primitives, enums, containers, kernels "
        "and dataclasses only"
    )


def fingerprint(*parts: object) -> str:
    """SHA-256 hex digest of the canonical form of ``parts``."""
    return hashlib.sha256(_serialize(canonicalize(parts))).hexdigest()


def engine_fingerprint(cycle_skip: bool | None = None) -> tuple:
    """The engine configuration a simulation result depends on.

    ``cycle_skip=None`` defers to ``REPRO_CYCLE_SKIP`` exactly as
    :class:`~repro.sim.core.SMCore` does; an explicit boolean (the
    ``simulate`` kwarg) wins over the environment.
    """
    if cycle_skip is None:
        cycle_skip = _flag("REPRO_CYCLE_SKIP")
    return (
        "engine",
        CACHE_SCHEMA_VERSION,
        _flag("REPRO_DECODE_CACHE"),
        bool(cycle_skip),
        _flag("REPRO_VECTOR_LANES"),
        _flag("REPRO_WARP_BATCH"),
        _flag("REPRO_TRACE_JIT"),
    )


def simulate_key(
    kernel: Kernel,
    launch: object,
    config: object,
    *,
    mode: str,
    threshold: int,
    sim_sms: int,
    max_ctas_per_sm_sim: int | None,
    sample_interval: int,
    trace_warp_slots: tuple[int, ...],
    spill_enabled: bool,
    max_cycles: int,
    cycle_skip: bool | None,
) -> str:
    """Cache key for one :func:`repro.sim.gpu.simulate` call.

    ``jobs`` is deliberately absent: the parallel path is bit-identical
    to the serial one, so fan-out degree must not split the cache.
    """
    return fingerprint(
        "sim",
        engine_fingerprint(cycle_skip),
        kernel,
        launch,
        config,
        mode,
        threshold,
        sim_sms,
        max_ctas_per_sm_sim,
        sample_interval,
        tuple(trace_warp_slots),
        spill_enabled,
        max_cycles,
    )


def compile_key(
    kernel: Kernel,
    launch: object,
    config: object,
    *,
    insert_flags: bool,
    edge_releases: bool,
) -> str:
    """Cache key for one :func:`repro.compiler.compile_kernel` call.

    Compilation is engine-independent (the decode/skip switches select
    simulator paths, not compiler output), so only the schema version
    joins the content fields.
    """
    return fingerprint(
        "compile",
        CACHE_SCHEMA_VERSION,
        kernel,
        launch,
        config,
        insert_flags,
        edge_releases,
    )


def flow_spec_key(flow: str, workload: object, kwargs: dict) -> str:
    """Dedup key for one ``(flow, workload, kwargs)`` sweep spec."""
    return fingerprint("flow", flow, workload, kwargs)
