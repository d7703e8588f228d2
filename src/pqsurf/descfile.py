"""Surface description files.

Two equivalent formats are accepted: an INI-style key = value file with
[group], [curve1], [curve2] and optional [options]/[aux] sections, or a JSON
document with the same keys.  Permutations are written in cycle notation
"(1,2)(3,4)" or as 1-indexed image arrays "[2,1,4,3]".
"""

from __future__ import annotations

import configparser
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .covering import GeneratingVector
from .errors import InternalInconsistency, ParseError, SizeLimit
from .groups import DEFAULT_ORDER_CAP, Group, catalog_group, group_from_generators
from .perms import parse_permutation

_GROUP_KEYS = {"name", "generators"}
_CURVE_KEYS = {"genus0", "handles", "monodromies", "orders", "search"}
_OPTION_KEYS = {"format"}


@dataclass(frozen=True)
class CurveSpec:
    genus0: int
    handles: Optional[tuple[str, ...]]       # 2*genus0 permutation strings
    monodromies: Optional[tuple[str, ...]]
    orders: Optional[tuple[int, ...]]
    search: Optional[tuple[int, ...]]

    @property
    def is_search(self) -> bool:
        return self.search is not None


@dataclass(frozen=True)
class GroupSpec:
    name: Optional[str]
    generators: Optional[tuple[str, ...]]

    def label(self) -> str:
        return self.name if self.name else "custom group"


@dataclass(frozen=True)
class SurfaceDescription:
    group: GroupSpec
    curve1: CurveSpec
    curve2: CurveSpec
    output_format: str = "text"
    aux: Optional[tuple[GroupSpec, CurveSpec]] = None


def _split_perms(raw, what: str) -> tuple[str, ...]:
    """The permutations of a JSON list of strings, or of a ';'-separated
    string; ParseError names ``what`` for any other value."""
    if isinstance(raw, str):
        return tuple(p.strip() for p in raw.split(";") if p.strip())
    if isinstance(raw, list) and all(isinstance(p, str) for p in raw):
        return tuple(raw)
    raise ParseError(
        f"{what} must be a list of permutation strings or a ';'-separated string, not {raw!r}"
    )


def _to_int(raw, what: str) -> int:
    """An int, or a string of one; a JSON fraction or boolean is refused
    rather than truncated."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer, not {raw!r}")


def _split_ints(raw, what: str) -> tuple[int, ...]:
    """The integers of a list or of a comma-separated string; ParseError
    names ``what`` when an entry is not an integer."""
    if not isinstance(raw, (list, tuple)):
        raw = [tok.strip() for tok in str(raw).split(",") if tok.strip()]
    return tuple(_to_int(tok, what) for tok in raw)


def _curve_from_mapping(section: str, data: dict) -> CurveSpec:
    unknown = set(data) - _CURVE_KEYS
    if unknown:
        raise ParseError(f"[{section}] has unknown keys: {', '.join(sorted(unknown))}")
    if "genus0" not in data:
        raise ParseError(f"[{section}] requires genus0")
    genus0 = _to_int(data["genus0"], f"[{section}] genus0")
    if genus0 < 0:
        raise ParseError(f"[{section}] genus0 must be nonnegative, not {genus0}")
    has_search = "search" in data
    has_explicit = any(k in data for k in ("handles", "monodromies", "orders"))
    if has_search == has_explicit:
        raise ParseError(
            f"[{section}] must contain exactly one of a search directive or an explicit vector"
        )
    if has_search:
        return CurveSpec(genus0, None, None, None, _split_ints(data["search"], f"[{section}] search"))
    if "monodromies" not in data or "orders" not in data:
        raise ParseError(f"[{section}] explicit vectors need monodromies and orders")
    handles = _split_perms(data.get("handles", ""), f"[{section}] handles")
    monos = _split_perms(data["monodromies"], f"[{section}] monodromies")
    orders = _split_ints(data["orders"], f"[{section}] orders")
    if len(handles) != 2 * genus0:
        raise ParseError(f"[{section}] needs {2 * genus0} handle entries, got {len(handles)}")
    if len(monos) != len(orders):
        raise ParseError(f"[{section}] needs one order per monodromy")
    return CurveSpec(genus0, handles, monos, orders, None)


def _group_from_mapping(section: str, data: dict) -> GroupSpec:
    unknown = set(data) - _GROUP_KEYS
    if unknown:
        raise ParseError(f"[{section}] has unknown keys: {', '.join(sorted(unknown))}")
    name = data.get("name")
    gens = data.get("generators")
    if (name is None) == (gens is None):
        raise ParseError(f"[{section}] requires exactly one of name or generators")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"[{section}] name must be a string, not {name!r}")
    if gens is not None:
        gens = _split_perms(gens, f"[{section}] generators")
        if not gens:
            raise ParseError(f"[{section}] generators list is empty")
    return GroupSpec(name, gens)


def parse_description(path) -> SurfaceDescription:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
        return _from_mappings(payload)
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ParseError(f"invalid description file {path}: {exc}") from exc
    payload = {section: dict(parser.items(section)) for section in parser.sections()}
    return _from_mappings(payload)


def _from_mappings(payload: dict) -> SurfaceDescription:
    if not isinstance(payload, dict):
        raise ParseError("description must be a mapping")
    unknown = set(payload) - {"group", "curve1", "curve2", "options", "aux"}
    if unknown:
        raise ParseError(f"unknown sections: {', '.join(sorted(unknown))}")
    for required in ("group", "curve1", "curve2"):
        if required not in payload:
            raise ParseError(f"missing [{required}] section")
    for section, data in payload.items():
        if not isinstance(data, dict):
            raise ParseError(f"[{section}] must be a mapping, not {type(data).__name__}")
    group = _group_from_mapping("group", payload["group"])
    curve1 = _curve_from_mapping("curve1", payload["curve1"])
    curve2 = _curve_from_mapping("curve2", payload["curve2"])
    fmt = "text"
    if "options" in payload:
        opts = payload["options"]
        unknown = set(opts) - _OPTION_KEYS
        if unknown:
            raise ParseError(f"[options] has unknown keys: {', '.join(sorted(unknown))}")
        fmt = str(opts.get("format", "text"))
        if fmt not in ("text", "json"):
            raise ParseError(f"unknown output format {fmt!r}")
    aux = None
    if "aux" in payload:
        aux_data = dict(payload["aux"])
        aux_group_keys = {k: aux_data.pop(k) for k in ("name", "generators") if k in aux_data}
        aux = (_group_from_mapping("aux", aux_group_keys), _curve_from_mapping("aux", aux_data))
    return SurfaceDescription(group, curve1, curve2, fmt, aux)


def resolve_group(spec: GroupSpec) -> Group:
    if spec.name is not None:
        return catalog_group(spec.name)
    degree = max(
        (_max_point(g) for g in spec.generators),
        default=1,
    )
    if degree > DEFAULT_ORDER_CAP:
        raise SizeLimit(f"point {degree} in the generators exceeds the limit {DEFAULT_ORDER_CAP}")
    perms = [parse_permutation(g, degree) for g in spec.generators]
    return group_from_generators(perms)


def _max_point(perm_text: str) -> int:
    digits = [int(tok) for tok in re.findall(r"\d+", perm_text)]
    if not digits:
        return 1
    if perm_text.strip().startswith("["):
        return len(digits)
    return max(digits)


def build_explicit_vector(curve: CurveSpec, group: Group) -> GeneratingVector:
    if curve.is_search:
        raise InternalInconsistency("an explicit vector was asked of a search curve")
    handle_perms = [parse_permutation(h, group.degree) for h in curve.handles]
    monos = [parse_permutation(c, group.degree) for c in curve.monodromies]
    handles = tuple(
        (handle_perms[2 * i], handle_perms[2 * i + 1]) for i in range(curve.genus0)
    )
    return GeneratingVector(group, curve.genus0, handles, tuple(monos), curve.orders)
