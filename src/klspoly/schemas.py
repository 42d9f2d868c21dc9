"""Versioned JSON documents for posets, subdivisions, fans, and complexes.

Every object the command line reads or the package ships as a fixture is a
*document*: a JSON object ``{"schema": <tag>, "v": 1, ...payload...}``.
Recognized tags:

``poset``
    A finite poset with an optional rank vector, the natural rank when
    absent; payload is :meth:`klspoly.poset.Poset.to_json`.
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

:data:`BUILDERS` maps each tag to the function that turns a payload into
its object; a group document builds to its list of generators, since the
poset it acts on comes from another document.  Each builder imports the
layer it needs when it runs, so reading a poset loads no geometry.

Separately from documents, a *kernel file* is a bare JSON object
``{"values": [[z, zp, [c0, c1, ...]], ...]}`` listing the coefficient
vectors of an incidence-algebra kernel on the comparable pairs of a poset
supplied from elsewhere; unlisted comparable pairs default to the Eulerian
kernel's values, so a kernel file can record a sparse override.
"""

import json
import os
from contextlib import contextmanager

from .incidence import IncidenceElement, WeakRank, eulerian_kernel
from .polynomial import Poly
from .poset import Poset
from .status import GroupBoundError, InputError, json_int

VERSION = 1


class DocumentError(InputError):
    """Raised when a JSON document is malformed or has the wrong schema."""


def fixture_path(name):
    """Filesystem path of a bundled fixture."""
    return os.path.join(os.path.dirname(__file__), "fixtures", name)


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


def load_fixture(name, expect=None):
    """Load a bundled fixture document; return (tag, payload)."""
    return load_document(fixture_path(name), expect=expect)


@contextmanager
def _payload(kind):
    """Report an error raised while building a ``kind`` payload as a
    DocumentError; document and environment errors pass unchanged."""
    try:
        yield
    except (DocumentError, GroupBoundError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        missing = "missing field " if isinstance(exc, KeyError) else ""
        raise DocumentError(f"bad {kind} payload: {missing}{exc}") from exc


def build_poset(payload):
    with _payload("poset"):
        return Poset.from_json(payload)


def build_sfs(payload):
    from .subdivision import StrongFormalSubdivision

    with _payload("sfs"):
        x = Poset.from_json(payload["x"])
        y = Poset.from_json(payload["y"])
        return StrongFormalSubdivision(x, y, tuple(payload["sigma"]))


def build_triple(payload):
    from .subdivision import SubdivisionTriple

    with _payload("triple"):
        return SubdivisionTriple.from_json(payload)


def build_fan(payload):
    """Return (fan, action-or-None) from a fan payload."""
    from .fans import EquivFanAction, LatticeFan

    with _payload("fan"):
        fan = LatticeFan.from_json(payload)
        action = None
        if payload.get("action") is not None:
            action = EquivFanAction.from_json(fan, payload["action"])
    return fan, action


def build_complex(payload):
    from .ehrhart import LatticeSimplexComplex

    with _payload("complex"):
        return LatticeSimplexComplex.from_json(payload)


def group_generators(payload):
    """The generators of a group document, as tuples of integers."""
    gens = payload.get("generators")
    if not isinstance(gens, list) or not gens:
        raise DocumentError("group document needs generators")
    if not all(isinstance(g, list) and all(type(v) is int for v in g)
               for g in gens):
        raise DocumentError("group generators must be lists of integers")
    return [tuple(g) for g in gens]


def build_group(payload, poset, max_group=None):
    """Instantiate a group document as a PermAction on ``poset``."""
    from .equivariant import PermAction

    return PermAction(poset, group_generators(payload), max_group=max_group)


#: Document tag -> builder of the object a payload describes.
BUILDERS = {"poset": build_poset, "sfs": build_sfs, "triple": build_triple,
            "fan": build_fan, "complex": build_complex,
            "group": group_generators}
TAGS = tuple(BUILDERS)


def load_kernel_file(path, poset):
    """Read a kernel file and realize it on ``poset``."""
    return realize_kernel(_read_json(path), poset)


def realize_kernel(obj, poset):
    """Realize the decoded JSON value ``obj`` of a kernel file on ``poset``.

    Starts from the Eulerian kernel of ``poset`` and overrides the listed
    comparable pairs, in file order.  Validation of the result is the
    caller's business: :func:`klspoly.incidence.validate_kernel` checks the
    kernel axioms on a poset and :func:`klspoly.subdivision.solve_kernel`
    on a triple, while a solve checks only the unit diagonal and the
    mirror constraints of the intervals it fills.
    """
    if not isinstance(obj, dict) or "values" not in obj:
        raise DocumentError("kernel file must be an object with a 'values' list")
    base = eulerian_kernel(poset)
    vals = dict(base.vals)
    try:
        for entry in obj["values"]:
            z, zp, coeffs = entry
            z, zp = (json_int(k, "kernel file element", DocumentError)
                     for k in (z, zp))
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
