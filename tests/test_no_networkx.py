"""The package runs without networkx.

networkx is a test dependency only: the tests compare the join-graph
utilities of ``repro.db.schema`` and the Chow–Liu trees of
``repro.ce.chow_liu`` against it.  A child process with ``networkx``
blocked in ``sys.modules`` (any ``import networkx`` raises
``ImportError``) imports every module of the package, then runs ``python
-m repro`` through generate → train → recommend.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""\
    import importlib
    import pkgutil
    import runpy
    import sys

    sys.modules["networkx"] = None  # every import of it raises ImportError

    import repro

    names = [info.name for info in pkgutil.walk_packages(repro.__path__,
                                                         "repro.")]
    for name in names:
        if name != "repro.__main__":  # runs the CLI on import; run below
            importlib.import_module(name)
    print("imported", len(names), "modules")

    def repro_cli(*argv):
        sys.argv = ["repro", *argv]
        try:
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
        except SystemExit as done:
            assert done.code == 0, (argv, done.code)

    work = sys.argv[1]
    repro_cli("generate", "--seed", "77", "--out", f"{work}/target.npz")
    repro_cli("train", "--corpus", "4", "--fast", "--seed", "3",
              "--out", f"{work}/advisor.npz", "--cache", f"{work}/labels")
    repro_cli("recommend", f"{work}/target.npz",
              "--advisor", f"{work}/advisor.npz", "--weight", "0.9")
    assert sys.modules["networkx"] is None
    """)


def test_generate_train_recommend_with_networkx_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "imported" in done.stdout
    assert "recommended model:" in done.stdout
    assert (tmp_path / "advisor.npz").is_file()
