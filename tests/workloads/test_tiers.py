"""Workload traces do not depend on which interpreter tier ran them.

The trace store keys shards by workload name, data set, cap and generator
``version`` — not by interpreter — so a shard written before or after an
interpreter change must hold the same bytes.  Each of the 14 workload
variants is generated with every block compiled on first entry and with
none ever compiled; the trace digests and instruction mixes must match.
"""

import hashlib
import sys
from array import array

import pytest

from repro.isa import cpu as cpu_module
from repro.workloads.base import get_workload, workload_names

_CAP = 3_000

#: generator versions the stored shards were keyed with; an interpreter
#: change must leave every trace, and so every version, as it was.
_VERSIONS = {
    "eqntott": 2,
    "espresso": 2,
    "gcc": 2,
    "li": 4,
    "doduc": 2,
    "fpppp": 2,
    "matrix300": 2,
    "spice2g6": 2,
    "tomcatv": 2,
}

_VARIANTS = [
    (name, role) for name in workload_names() for role in get_workload(name).datasets
]


def _generate(name, role, threshold, monkeypatch):
    monkeypatch.setattr(cpu_module, "HOT_THRESHOLD", threshold)
    workload = get_workload(name)
    trace = workload.generate(workload.dataset(role), _CAP)
    packed = trace.packed()
    digest = hashlib.sha256()
    digest.update(array("I", packed.pc).tobytes())
    digest.update(array("I", packed.target).tobytes())
    digest.update(bytes(packed.flags))
    return digest.hexdigest(), trace.mix


def test_fourteen_variants():
    assert len(_VARIANTS) == 14


@pytest.mark.parametrize("name,role", _VARIANTS)
def test_compiled_and_cold_traces_identical(name, role, monkeypatch):
    compiled = _generate(name, role, 1, monkeypatch)
    cold = _generate(name, role, sys.maxsize, monkeypatch)
    assert compiled == cold
    assert compiled[1].conditional == _CAP


def test_workload_versions_unchanged():
    assert {name: get_workload(name).version for name in workload_names()} == _VERSIONS
