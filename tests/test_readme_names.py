"""Every ``dressedmet`` name that README presents resolves.

README backticks names as ``module.attr`` or ``Class.attr`` (also as the head
of a call, ``module.attr(...)``) and imports names in its examples.  Each one
whose head is a package module or a class of the package must exist, so an
API removal that leaves README stale fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import dressedmet

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name: importlib.import_module(f"dressedmet.{m.name}")
           for m in pkgutil.iter_modules(dressedmet.__path__) if not m.name.startswith("_")}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if isinstance(obj, type) and obj.__module__.startswith("dressedmet.")}


def dotted_names(text):
    """``(head, attr)`` of every backticked ``head.attr`` whose head is a module or class."""
    return sorted({(head, attr) for head, attr in re.findall(r"`(\w+)\.(\w+)[`(]", text)
                   if head in MODULES or head in CLASSES})


def imported_names(text):
    """``(module, name)`` of every ``from dressedmet.module import ...`` line."""
    return sorted({(module, name.strip())
                   for module, names in re.findall(r"^from dressedmet\.(\w+) import ([\w, ]+)$", text, re.M)
                   for name in names.split(",")})


def missing_names(text):
    missing = [f"{head}.{attr}" for head, attr in dotted_names(text)
               if not hasattr(MODULES[head] if head in MODULES else CLASSES[head], attr)]
    return missing + [f"dressedmet.{module}.{name}" for module, name in imported_names(text)
                      if not hasattr(MODULES.get(module), name)]


def test_every_name_readme_presents_resolves():
    text = README.read_text()
    assert dotted_names(text) and imported_names(text)
    assert missing_names(text) == []


def test_a_stale_name_is_found():
    assert missing_names("`BathSpectrum.rate` and `simulate.gone(x)`\n"
                         "from dressedmet.nv import NvParams\n") == [
        "BathSpectrum.rate", "simulate.gone", "dressedmet.nv.NvParams"]
