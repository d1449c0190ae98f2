import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attribute(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, attr = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_benchmark_tracer_finds_and_restores_every_wrapped_attribute():
    # The benchmark's tracer patches these names from outside the package;
    # a rename would otherwise surface only as a KeyError in a traced run.
    spans = _load_spans()
    names = [(module, attr) for module, attr, _name, _peak in spans.WRAPPED]
    before = [_attribute(*name) for name in names]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(_attribute(*n) is not b for n, b in zip(names, before))
    finally:
        tracer.uninstall()
    assert all(_attribute(*n) is b for n, b in zip(names, before))


SOURCE = Path(__file__).resolve().parents[1] / "src" / "qwalk"
LINE_BUDGET = 2400


def test_the_package_stays_inside_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SOURCE.glob("*.py"))
    assert lines <= LINE_BUDGET, (
        f"src/qwalk has {lines} lines, over its budget of {LINE_BUDGET}: the budget does not "
        "grow, so every line added there must be paid for by deleting another"
    )
