"""Every site the traced benchmark wraps still exists.

``perfbench/run.py --trace`` patches the functions its span tables name,
and a site that no longer resolves (a renamed method, a deleted class
attribute) would otherwise fail only once a traced run starts.  This
reads the two tables by file path, executing them without importing
``perfbench`` as a package or writing anything next to them, and
resolves each site the way ``Tracer.install`` does: a class attribute
through the class's own ``__dict__``, so an attribute merely inherited
from a base class does not count.
"""

from __future__ import annotations

import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str) -> types.ModuleType:
    """``perfbench/<name>.py`` as a fresh module, read-only."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_site_resolves():
    layers, spans = _load("layers"), _load("spans")
    sites = [site for table in (layers.CLIENT_SPANS, layers.SERVER_SPANS)
             for _, _, span_sites in table for site in span_sites]
    assert sites
    unresolved = []
    for site in sites:
        try:
            owner, attr = spans.resolve(site)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError) as exc:
            unresolved.append(f"{site}: {exc!r}")
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            raw = raw.__func__  # install re-wraps the function inside
        if not callable(raw):
            unresolved.append(f"{site}: {raw!r} is not callable")
    assert not unresolved, unresolved
