"""End-to-end and per-layer benchmark of the annotated-streaming stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``perfbench/METHODS.md`` explains what each workload
exercises and how every metric is derived.
"""
