"""Outside-in benchmark of the listio-pfs access strategies.

Run it from the repository root as ``python3 perfbench/run.py``; see
perfbench/README.md for the workloads, metrics and layer trace.
"""
