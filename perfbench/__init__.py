"""Solve benchmark for dper: four generated workloads through `dper solve`.

`run.py` is the entry point; see its docstring for usage.
"""
