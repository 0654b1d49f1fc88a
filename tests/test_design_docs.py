"""Documentation-consistency checks: the repo's promises hold."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_required_docs_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).is_file(), name


def test_design_md_confirms_paper_identity():
    text = (ROOT / "DESIGN.md").read_text()
    assert "Paper identity check" in text
    assert "Hetero-DMR" in text


def test_every_bench_listed_in_readme():
    readme = (ROOT / "README.md").read_text()
    benches = sorted(p.stem for p in (ROOT / "benchmarks").glob(
        "bench_*.py"))
    for bench in benches:
        assert bench in readme, "{} missing from README".format(bench)


def test_every_figure_bench_exists():
    """DESIGN.md's experiment index names a bench per table/figure."""
    design = (ROOT / "DESIGN.md").read_text()
    for ref in re.findall(r"benchmarks/(bench_\w+)\.py", design):
        assert (ROOT / "benchmarks" / (ref + ".py")).is_file(), ref


def test_examples_listed_in_readme_exist():
    readme = (ROOT / "README.md").read_text()
    for ref in re.findall(r"examples/(\w+)\.py", readme):
        assert (ROOT / "examples" / (ref + ".py")).is_file(), ref


def test_public_modules_have_docstrings():
    import importlib
    for name in ("repro", "repro.core", "repro.dram", "repro.ecc",
                 "repro.errors", "repro.fleet", "repro.hpc",
                 "repro.sim", "repro.workloads",
                 "repro.characterization", "repro.cache",
                 "repro.mem_ctrl", "repro.cpu", "repro.energy",
                 "repro.analysis", "repro.recovery",
                 "repro.resilience", "repro.perf"):
        mod = importlib.import_module(name)
        assert mod.__doc__, name


def test_public_classes_documented():
    """Every exported class/function in the top subpackages carries a
    docstring (deliverable e: doc comments on every public item)."""
    import importlib
    import inspect
    for pkg_name in ("repro.core", "repro.ecc", "repro.fleet",
                     "repro.hpc", "repro.errors", "repro.sim",
                     "repro.dram", "repro.recovery", "repro.perf"):
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, "{}.{}".format(pkg_name, name)


def test_no_module_imports_numpy():
    """Every host runs the same code: no ``repro`` module imports numpy,
    even where it is installed.  Checked in a fresh interpreter so other
    tests' imports cannot mask or cause a hit.  ``repro.__main__`` is
    skipped: importing it runs the CLI (its one import, ``repro.cli``,
    is covered)."""
    import os
    import subprocess
    import sys
    script = (
        "import importlib, pkgutil, sys\n"
        "import repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name != 'repro.__main__':\n"
        "        importlib.import_module(info.name)\n"
        "assert 'numpy' not in sys.modules, sorted(\n"
        "    m for m in sys.modules if m.startswith('numpy'))[:1]\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
