"""Versioned JSON documents for posets, subdivisions, fans, and complexes.

Every object the command line reads or the package ships as a fixture is a
*document*: a JSON object ``{"schema": <tag>, "v": 1, ...payload...}``.
Recognized tags:

``poset``
    A finite poset with an optional rank vector; payload is
    :meth:`klspoly.poset.Poset.to_json`.
``sfs``
    A strong formal subdivision ``sigma: X -> Y``; payload has keys
    ``x`` and ``y`` (poset payloads) and ``sigma`` (list of Y-indices,
    one per X element).
``triple``
    A lower Eulerian poset with a distinguished element ``q``; payload is
    :meth:`klspoly.subdivision.SubdivisionTriple.to_json` (keys ``poset``
    and ``q``).
``fan``
    A rational fan; payload is :meth:`klspoly.fans.LatticeFan.to_json`
    (keys ``dim``, ``rays``, ``cones``, ``covers``), with an optional key
    ``action`` holding ``{"matrices": [...]}`` of integer lattice
    automorphisms.
``complex``
    A lattice simplicial complex with an optional affine group action and
    an optional coarse polytopal face structure; payload is
    :meth:`klspoly.ehrhart.LatticeSimplexComplex.to_json`.
``group``
    A permutation group on the elements of some other document's poset;
    payload is ``{"generators": [[...], ...]}``.

Separately from documents, a *kernel file* is a bare JSON object
``{"values": [[z, zp, [c0, c1, ...]], ...]}`` listing the coefficient
vectors of an incidence-algebra kernel on the comparable pairs of a poset
supplied from elsewhere; unlisted comparable pairs default to the Eulerian
kernel's values, so a kernel file can record a sparse override.
"""

import json

from .equivariant import PermAction
from .ehrhart import LatticeSimplexComplex
from .fans import EquivFanAction, LatticeFan
from .incidence import IncidenceElement, WeakRank, eulerian_kernel
from .polynomial import Poly
from .poset import Poset
from .subdivision import StrongFormalSubdivision, SubdivisionTriple

TAGS = ("poset", "sfs", "triple", "fan", "complex", "group")
VERSION = 1


class DocumentError(ValueError):
    """Raised when a JSON document is malformed or has the wrong schema."""


def parse_document(obj, expect=None):
    """Validate a loaded JSON object as a document; return (tag, payload).

    ``expect`` may be a tag or a tuple of tags that the document must match.
    """
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    tag = obj.get("schema")
    if tag not in TAGS:
        raise DocumentError(
            f"missing or unknown schema tag {tag!r}; expected one of {', '.join(TAGS)}")
    if obj.get("v") != VERSION:
        raise DocumentError(f"unsupported document version {obj.get('v')!r}")
    if expect is not None:
        wanted = (expect,) if isinstance(expect, str) else tuple(expect)
        if tag not in wanted:
            raise DocumentError(
                f"expected a {' or '.join(wanted)} document, got {tag!r}")
    payload = {k: v for k, v in obj.items() if k not in ("schema", "v")}
    return tag, payload


def _read_json(path):
    """The JSON value in a file; DocumentError when unreadable or invalid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def load_document(path, expect=None):
    """Read a document from disk; return (tag, payload)."""
    return parse_document(_read_json(path), expect=expect)


def _ranked(poset):
    if poset.rank is None:
        return poset.with_rank(poset.natural_rank())
    return poset


def build_poset(payload):
    try:
        return _ranked(Poset.from_json(payload))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DocumentError):
            raise
        raise DocumentError(f"bad poset payload: {exc}") from exc


def build_sfs(payload):
    try:
        x = _ranked(Poset.from_json(payload["x"]))
        y = _ranked(Poset.from_json(payload["y"]))
        return StrongFormalSubdivision(x, y, tuple(payload["sigma"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DocumentError):
            raise
        raise DocumentError(f"bad sfs payload: {exc}") from exc


def build_triple(payload):
    try:
        return SubdivisionTriple.from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad triple payload: {exc}") from exc


def build_fan(payload):
    """Return (fan, action-or-None) from a fan payload."""
    try:
        fan = LatticeFan.from_json(payload)
        action = None
        if payload.get("action") is not None:
            action = EquivFanAction.from_json(fan, payload["action"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad fan payload: {exc}") from exc
    return fan, action


def build_complex(payload):
    try:
        return LatticeSimplexComplex.from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad complex payload: {exc}") from exc


def build_group(payload, poset, max_group=None):
    """Instantiate a group document as a PermAction on ``poset``."""
    try:
        gens = [tuple(int(v) for v in g) for g in payload["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"bad group payload: {exc}") from exc
    return PermAction(poset, gens, max_group=max_group)


def load_kernel_file(path, poset):
    """Read a kernel file and realize it on ``poset``.

    Starts from the Eulerian kernel of ``poset`` and overrides the listed
    comparable pairs.  Validation of the result is the caller's business
    (the solvers re-check the kernel axioms as they run).
    """
    obj = _read_json(path)
    if not isinstance(obj, dict) or "values" not in obj:
        raise DocumentError("kernel file must be an object with a 'values' list")
    base = eulerian_kernel(poset)
    vals = dict(base.vals)
    try:
        for entry in obj["values"]:
            z, zp, coeffs = entry
            z, zp = int(z), int(zp)
            if not (0 <= z < poset.n and 0 <= zp < poset.n):
                raise DocumentError(
                    f"kernel file names a missing element in ({z}, {zp})")
            if not poset.leq(z, zp):
                raise DocumentError(
                    f"kernel file lists a non-comparable pair ({z}, {zp})")
            vals[(z, zp)] = Poly.from_json(coeffs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, DocumentError):
            raise
        raise DocumentError(f"bad kernel file entry: {exc}") from exc
    return IncidenceElement(poset, WeakRank.natural(poset), vals)
