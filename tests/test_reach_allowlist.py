"""scripts/reach_allowlist.txt names only functions that exist, each with
a reason, so the list cannot go stale as code is deleted.

Static: ``src/`` is read with ``ast`` by the probe's own helpers in
``scripts/reach.py``; nothing of ``repro`` is imported or run.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_probe():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "scripts" / "reach.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PROBE = _load_probe()
ENTRIES = PROBE.read_allowlist()
PUBLIC = {
    f"{module}:{qualname}": public
    for module, qualname, _, _, _, public in PROBE.defined_functions()
}


def test_allowlist_is_not_empty():
    assert ENTRIES


def test_every_entry_names_a_function_in_src():
    missing = [f"line {n}: {name}" for n, name, _ in ENTRIES if name not in PUBLIC]
    assert not missing, "not a function of src/: " + ", ".join(missing)


def test_every_entry_gives_a_reason():
    bare = [f"line {n}: {name}" for n, name, reason in ENTRIES if not reason]
    assert not bare, "no reason: " + ", ".join(bare)


def test_every_entry_is_public():
    """The probe reports only public functions; any other entry is dead."""
    private = [name for _, name, _ in ENTRIES if PUBLIC.get(name) is False]
    assert not private, "not public: " + ", ".join(private)


def test_no_entry_is_listed_twice():
    names = [name for _, name, _ in ENTRIES]
    assert len(names) == len(set(names))
