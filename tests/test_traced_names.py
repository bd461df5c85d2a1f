"""Every name the benchmark's tracer wraps still names a callable of the package.

``perfbench/spans.py`` looks its targets up by module and qualified name and
reports a name it cannot find as missing, so a deleted or renamed function
silently drops a per-layer metric.  This test loads that file by its path and
reads its two target tables; it installs no tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [*spans.TARGETS, *spans.HOOK_TARGETS]


TARGETS = _targets()


@pytest.mark.parametrize("group, module, qualname", [entry[:3] for entry in TARGETS],
                         ids=[f"{entry[0]}:{entry[1]}.{entry[2]}" for entry in TARGETS])
def test_every_traced_name_is_a_callable_of_the_package(group, module, qualname):
    assert module.split(".")[0] == "wallcross"
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{group}: {module}.{qualname} is not a callable"
