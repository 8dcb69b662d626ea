"""Set-up probe: a fresh process imports the program and builds one system.

Usage: python3 bench/setup_probe.py GRAPH_JSON MODULE...

Prints ``ready`` once the first job could start; ``run.py`` times a few of
these probes from process start to that line and reports the median as
``setup_s``.  The program must be importable (``src`` on PYTHONPATH).
"""

import importlib
import sys

graph_path, *modules = sys.argv[1:]
for name in modules:
    importlib.import_module(name)
importlib.import_module("limitroots.geometry").make_system(graph_path)
print("ready", flush=True)
