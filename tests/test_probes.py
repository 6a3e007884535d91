"""Every library name that the benchmark's probes wrap (bench/probes.py)
still exists.  A traced bench run installs probes only on the modules its
workload imports, and each CLI command loads only the modules it calls, so
the traced runs alone would miss a renamed or deleted function in a module
some workload never loads.  This test imports every probed module and
resolves every target as the probes do; it reads bench/ and changes nothing
there."""

import importlib
from pathlib import Path

import pytest

PROBES = Path(__file__).parent.parent / "bench" / "probes.py"
# deleted from the library before the probes were last updated: its metric reads 0
MAY_BE_ABSENT = {"sympsheaf.symplectic:_pointwise_completion"}


def probe_targets() -> list[str]:
    # run from its source, so that no bytecode cache is written under bench/
    probes = {"__name__": "bench_probes"}
    exec(compile(PROBES.read_text(encoding="utf-8"), str(PROBES), "exec"), probes)
    return [t for ts in probes["TIMED"].values() for t in ts] + \
        [probes["CONSTRUCTED"], *probes["CARRIERS"]]


def resolves(target: str) -> bool:
    """Whether a "module:Owner.name" target names a function the probes can
    wrap: one that the module, or the class itself, binds under that name."""
    module_name, qualname = target.split(":")
    *owner_path, name = qualname.split(".")
    owner = importlib.import_module(module_name)
    for part in owner_path:
        owner = getattr(owner, part, None)
    return owner is not None and vars(owner).get(name) is not None


@pytest.mark.parametrize("target", probe_targets())
def test_probe_target_exists(target):
    assert resolves(target) or target in MAY_BE_ABSENT
