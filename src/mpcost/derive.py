"""Deriving cost profiles from raw benchmark measurements.

A :class:`PriceSpec` (the cloud's VM and network prices) turns
:class:`RawMeasurement` averages (seconds and bytes per operation or
conversion) into the cent prices of a
:class:`~mpcost.cost_model.CostProfile`. Only ``mpcost derive-profile``
and library callers need this, so the optimizer commands never import
it.
"""

from __future__ import annotations

from collections.abc import Sequence

from .circuit import OpKind, _Value, op_from_name, parse_json
from .cost_model import CostProfile, _check_scale, _is_finite
from .errors import (
    DuplicateMeasurement,
    InvalidArgument,
    NegativeInput,
    ParseError,
    _shown,
)


class PriceSpec(_Value):
    """Cloud price sheet used to turn measured seconds and bytes into cents.

    ``vm_rate_a``/``vm_rate_b`` are the two parties' VM prices in cents per
    hour (both machines run for the full protocol, so compute cost uses
    their sum). ``net_rate`` is cents per GB transferred; ``gb_bytes``
    fixes the GB convention (decimal by default).
    """

    vm_rate_a: float
    vm_rate_b: float
    net_rate: float
    gb_bytes: int
    _compared = ("vm_rate_a", "vm_rate_b", "net_rate", "gb_bytes")

    def __init__(self, vm_rate_a, vm_rate_b, net_rate, gb_bytes=10**9):
        self._store(vm_rate_a=vm_rate_a, vm_rate_b=vm_rate_b, net_rate=net_rate,
                    gb_bytes=gb_bytes)
        rates = ("vm_rate_a", "vm_rate_b", "net_rate")
        for key in (*rates, "gb_bytes"):
            if not _is_finite(getattr(self, key)):
                raise ParseError(f"invalid price sheet: {key} must be a finite number")
        if not float(self.gb_bytes).is_integer():
            raise ParseError("invalid price sheet: gb_bytes must be an integer")
        for key in rates:
            if getattr(self, key) < 0:
                raise NegativeInput(f"invalid price sheet: {key} must be non-negative")
        if self.gb_bytes <= 0:
            raise NegativeInput("invalid price sheet: gb_bytes must be positive")


class RawMeasurement(_Value):
    """Externally measured per-operation averages.

    Exactly one of (``op``, ``scheme``) or (``source``, ``target``) must be
    set, describing either an operation benchmark or a conversion
    benchmark, and both fields of the other pair left ``None``, else
    :class:`InvalidArgument`. ``op`` is ``None`` or an :class:`OpKind`,
    else :class:`InvalidArgument`; scheme names are strings, else
    :class:`ParseError`. Values are averages over a benchmark run: wall
    seconds per operation and bytes transferred per operation.
    """

    seconds_per_op: float
    bytes_per_op: float
    op: OpKind | None
    scheme: str | None
    source: str | None
    target: str | None
    _compared = ("seconds_per_op", "bytes_per_op", "op", "scheme", "source", "target")

    def __init__(self, seconds_per_op, bytes_per_op, op=None, scheme=None,
                 source=None, target=None):
        self._store(seconds_per_op=seconds_per_op, bytes_per_op=bytes_per_op,
                    op=op, scheme=scheme, source=source, target=target)
        if not isinstance(op, (OpKind, type(None))):
            raise InvalidArgument(f"op must be an OpKind, got {_shown(op)}")
        is_op = op is not None and scheme is not None
        is_conv = source is not None and target is not None
        unused = (source, target) if is_op else (op, scheme)
        if is_op == is_conv or any(v is not None for v in unused):
            raise InvalidArgument(
                "measurement must set either (op, scheme) or (source, target),"
                " and leave the other pair None"
            )
        where = (f"{self.source}->{self.target}" if is_conv
                 else f"({self.op}, {self.scheme})")
        for key in ("scheme", "source", "target"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise ParseError(f"measurement {where}: {key} must be a string")
        numbers = ("seconds_per_op", "bytes_per_op")
        for key in numbers:
            if not _is_finite(getattr(self, key)):
                raise ParseError(f"measurement {where}: {key} must be a finite number")
        for key in numbers:
            if getattr(self, key) < 0:
                raise NegativeInput(f"measurement {where}: {key} must be non-negative")

    @classmethod
    def for_op(cls, op: OpKind, scheme: str, seconds_per_op: float,
               bytes_per_op: float) -> "RawMeasurement":
        return cls(seconds_per_op, bytes_per_op, op=op, scheme=scheme)

    @classmethod
    def for_conversion(cls, source: str, target: str, seconds_per_op: float,
                       bytes_per_op: float) -> "RawMeasurement":
        return cls(seconds_per_op, bytes_per_op, source=source, target=target)

    @property
    def is_conversion(self) -> bool:
        return self.source is not None


def derive_profile(
    measurements: Sequence[RawMeasurement],
    prices: PriceSpec,
    name: str,
    scale: float = 1.0,
    schemes: Sequence[str] | None = None,
) -> CostProfile:
    """Price raw measurements with a cloud price sheet.

    For every measurement, compute cost is
    ``seconds_per_op * (vm_rate_a + vm_rate_b) / 3600`` cents and network
    cost is ``bytes_per_op * net_rate / gb_bytes`` cents; both are divided
    by ``scale`` for storage. ``schemes`` fixes the canonical scheme order
    (default: sorted order of the schemes that appear).

    The resulting profile must pass full validation, so the measurement
    set has to cover every conversion pair and leave at least one scheme
    supporting every operation.
    """
    _check_scale(name, scale)
    op_costs: dict[tuple[OpKind, str], tuple[float, float]] = {}
    conversions: dict[tuple[str, str], tuple[float, float]] = {}
    seen: set[str] = set()
    # In floats, so int and float spellings agree bit for bit and none overflows.
    vm_rate = float(prices.vm_rate_a) + float(prices.vm_rate_b)
    net_rate = float(prices.net_rate)
    for m in measurements:
        p_cents = float(m.seconds_per_op) * vm_rate / 3600.0
        n_cents = float(m.bytes_per_op) * net_rate / prices.gb_bytes
        entry = (p_cents / scale, n_cents / scale)
        if m.is_conversion:
            key = (m.source, m.target)
            if key in conversions:
                raise DuplicateMeasurement(
                    f"duplicate conversion measurement {m.source}->{m.target}"
                )
            conversions[key] = entry
            seen.update(key)
        else:
            key = (m.op, m.scheme)
            if key in op_costs:
                raise DuplicateMeasurement(
                    f"duplicate measurement for ({m.op}, {m.scheme})"
                )
            op_costs[key] = entry
            seen.add(m.scheme)
    if schemes is None:
        schemes = tuple(sorted(seen))
    return CostProfile(name, scale, tuple(schemes), op_costs, conversions)



# --- measurement / price JSON --------------------------------------------------


#: The key set of an op measurement and of a conversion measurement.
_MEASUREMENT_KEYS = ({"op", "scheme", "seconds_per_op", "bytes_per_op"},
                     {"conversion", "seconds_per_op", "bytes_per_op"})


def measurements_from_json(text: str) -> tuple[list[RawMeasurement], list[str] | None]:
    """Parse a measurement file. Returns the measurements and the declared
    scheme order (``None`` when the file leaves it implicit).

    Format::

        {"schemes": ["arithmetic", "yao"],
         "measurements": [
           {"op": "add", "scheme": "yao", "seconds_per_op": 1e-3, "bytes_per_op": 416},
           {"conversion": ["yao", "arithmetic"], "seconds_per_op": 2e-3, "bytes_per_op": 512}
         ]}
    """
    doc = parse_json(text, "measurements")
    if not isinstance(doc, dict) or not isinstance(doc.get("measurements"), list):
        raise ParseError("measurements JSON must contain a 'measurements' list")
    extra = set(doc) - {"schemes", "measurements"}
    if extra:
        raise ParseError(f"unexpected measurements key(s): {sorted(extra)}")
    schemes = doc.get("schemes")
    if schemes is not None and (
        not isinstance(schemes, list) or not all(isinstance(s, str) for s in schemes)
    ):
        raise ParseError("'schemes' must be a list of names")
    out = []
    for i, obj in enumerate(doc["measurements"]):
        if not isinstance(obj, dict) or set(obj) not in _MEASUREMENT_KEYS:
            raise ParseError(
                f"measurement {i}: keys must be {sorted(_MEASUREMENT_KEYS[0])} "
                f"or {sorted(_MEASUREMENT_KEYS[1])}"
            )
        is_conversion = "conversion" in obj
        names = obj["conversion"] if is_conversion else [obj["op"], obj["scheme"]]
        if not (isinstance(names, list) and len(names) == 2
                and all(isinstance(name, str) for name in names)):
            raise ParseError(
                f"measurement {i}: needs an 'op' and a 'scheme' name, or a "
                f"'conversion' pair of scheme names"
            )
        numbers = obj["seconds_per_op"], obj["bytes_per_op"]
        if is_conversion:
            out.append(RawMeasurement.for_conversion(*names, *numbers))
        else:
            op, scheme = names
            out.append(RawMeasurement.for_op(op_from_name(op), scheme, *numbers))
    return out, schemes


def prices_from_json(text: str) -> PriceSpec:
    """Parse a price sheet: ``{"vm_rate_a": .., "vm_rate_b": .., "net_rate": ..,
    "gb_bytes": ..}`` with ``gb_bytes`` optional (default ``10**9``)."""
    doc = parse_json(text, "prices")
    if not isinstance(doc, dict):
        raise ParseError("prices JSON must be an object")
    extra = set(doc) - {"vm_rate_a", "vm_rate_b", "net_rate", "gb_bytes"}
    if extra:
        raise ParseError(f"unexpected price key(s): {sorted(extra)}")
    for key in ("vm_rate_a", "vm_rate_b", "net_rate"):
        if key not in doc:
            raise ParseError(f"invalid price sheet: missing {key!r}")
    return PriceSpec(**doc)


def load_measurements(path) -> tuple[list[RawMeasurement], list[str] | None]:
    with open(path, "r", encoding="utf-8") as f:
        return measurements_from_json(f.read())


def load_prices(path) -> PriceSpec:
    with open(path, "r", encoding="utf-8") as f:
        return prices_from_json(f.read())
