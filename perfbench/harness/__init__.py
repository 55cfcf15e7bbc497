"""Benchmark harness for the register-file virtualization simulator.

The harness drives the program only through its public entry points
(``repro.sim``, ``repro.experiments`` / ``repro.cache`` and
``repro.service``) and never modifies it. See ``perfbench/README.md``
for the workloads, the metrics and their measured spread.

Modules:

* :mod:`.stats` — medians, quartiles and the tail-percentile rule;
* :mod:`.tracing` — in-memory spans, self time and call wrapping;
* :mod:`.procs` — child-process lifetime (own sessions, group kill,
  survivor sweep, signal handling);
* :mod:`.checks` — expected outputs recorded from the program and the
  per-field comparisons;
* :mod:`.modes`, :mod:`.sweep`, :mod:`.serve` — the three workloads;
* :mod:`.layers` — per-layer metrics computed from a traced run.
"""
