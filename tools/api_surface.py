"""List the public API of `sqw` with every value a caller can set, to compare two source trees.

Usage:  python3 tools/api_surface.py [--tree DIR]

Imports `sqw` and each of its modules from DIR/src (DIR defaults to the checkout
that holds this script) and prints one sorted line per public name (one not
starting with "_"): each function and class a module defines, and each one the
package `sqw` exports.  A line holds the name's settable values:

    sqw.simulation.moments(step=0)                    each parameter with a default
    sqw.simulation.MomentSummary[mean, ..., step]     each field of a dataclass
    sqw.operators.ActiveSupport()                     another class: as a function
    sqw.coined.CoinedWalk.graph (property)            a public method or property

Module constants are not listed.  Diff the output of two trees to see which
settable values a change removed or added:

    python3 tools/api_surface.py --tree OLD > old.txt
    python3 tools/api_surface.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path


def defaults(func) -> str:
    """The parameters of func that have a default, as name=repr(default)."""
    parameters = inspect.signature(func).parameters.values()
    return ", ".join(f"{p.name}={p.default!r}" for p in parameters if p.default is not p.empty)


def fields(cls) -> str:
    """The fields of a dataclass, a field with a default as name=repr(default)."""
    return ", ".join(f.name if f.default is dataclasses.MISSING else f"{f.name}={f.default!r}"
                     for f in dataclasses.fields(cls))


def class_lines(name: str, cls) -> list[str]:
    """The line of a class and one line per public method or property it defines."""
    head = f"{name}[{fields(cls)}]" if dataclasses.is_dataclass(cls) \
        else f"{name}({defaults(cls)})"
    lines = [head]
    for member, value in vars(cls).items():
        if member.startswith("_"):
            continue
        if isinstance(value, (property, functools.cached_property)):
            lines.append(f"{name}.{member} (property)")
        elif callable(value) or isinstance(value, (classmethod, staticmethod)):
            lines.append(f"{name}.{member}({defaults(getattr(cls, member))})")
    return lines


def surface(package) -> list[str]:
    """The sorted lines of the package and of each of its modules."""
    modules = [package, *(importlib.import_module(f"{package.__name__}.{m.name}")
                          for m in pkgutil.iter_modules(package.__path__)
                          if m.name != "__main__")]
    lines = set()
    for module in modules:
        for name, value in vars(module).items():
            owner = getattr(value, "__module__", None) or ""
            if name.startswith("_") or not (owner == module.__name__ or (
                    module is package and owner.startswith(f"{package.__name__}."))):
                continue
            qualified = f"{module.__name__}.{name}"
            if inspect.isclass(value):
                lines.update(class_lines(qualified, value))
            elif callable(value):
                lines.add(f"{qualified}({defaults(value)})")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree holding src/sqw")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    print("\n".join(surface(importlib.import_module("sqw"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
